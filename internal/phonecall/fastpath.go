package phonecall

// This file is the engine's one shard pass, its dial samplers and the word
// kernel the pass hands fault-free senders rounds of at most four dials to
// (dialWords), on fully and partially alive views alike. Every topology is
// read through an epoch-stamped view that NewEngine fetches once
// (refreshCSR re-fetches it when a Step advanced the epoch): CSR arrays
// (CSRViewer), computable adjacency (ImplicitViewer), or interfaceView,
// which serves a topology's own Degree/Neighbor as implicit adjacency and
// scans Alive into a bitset. The pass therefore runs against raw slices
// and one devirtualisable resolver (nbrAt): for k <= 4 the scratch-free
// samplers (xrand.Distinct2/3/4) at every degree, liveness a bitset probe
// (aliveFast), "does the callee answer a pull?" one too (informedFast). A
// delivery asks nothing: the pass ORs the target's bit into its receipt
// bitset (setBit), and the merge applies the union of those bitsets less
// the informed (applyReceipts). Edge census keys (Config.TrackEdgeUse) are
// buffered and applied by the merge (markUsed).
//
// Contract: the CSR, implicit and interface views of one topology are
// interchangeable bit for bit: the pass consumes the PRNG stream draw for
// draw identically whatever the view (resolving a neighbour and probing
// liveness draw nothing, and ImplicitNeighbors enumerates exactly the rows
// a materialised CSR view would hold). So a run over graph.Implicit `f`
// equals the run over Static{Materialize(f)}, and Config.DisableFastPath
// changes nothing. Golden tests (fastpath_test.go, fastpath_churn_test.go)
// pin one digest per configuration across the E1–E20 matrix and the churn
// overlay, for every view and Workers value, recorded while the deleted
// interface-dispatch bodies still ran beside this pass; the word kernel is
// held to the general pass by a census run, which never takes it
// (wordkernel_test.go).

import "math/bits"

// row is v's first CSR slot and degree: (v·s, s) on a fixed-stride CSR
// view of stride s; on an implicit view 0 and uniDeg, which is 0 without a
// uniform degree: a Degree call would not inline, so degree makes it and
// wordRound leaves such views to sampleDials. Keep inlinable.
func (e *Engine) row(v int) (off, deg int) {
	switch {
	case e.csrOff != nil:
		off = int(e.csrOff[v])
		return off, int(e.csrOff[v+1]) - off
	case e.impNbrs == nil:
		return v * e.csrStride, e.csrStride
	}
	return 0, e.uniDeg
}

// degree is v's degree on the view: row's, or the implicit view's Degree
// call when it has no uniform degree for row to read. It is the engine's
// one degree source: the dial samplers, the dial budget (dialBudget), a
// settled run's cohort dials and the edge census all read it.
func (e *Engine) degree(v int) int {
	if _, deg := e.row(v); deg > 0 || e.impNbrs == nil {
		return deg
	}
	return e.impNbrs.Degree(v)
}

// nbrAt is the one neighbour resolver: the idx-th entry of v's row (off is
// the row's first CSR slot, unused on an implicit view), loaded from the
// CSR array or computed by the implicit view. It must stay inlinable into
// the samplers and deliverSlots below (`go build -gcflags=-m` reports "can
// inline (*Engine).nbrAt"); with row it is the pass's only implicit/dense
// branch.
func (e *Engine) nbrAt(v, off, idx int) int32 {
	if e.impNbrs != nil {
		return e.impNbrs.NeighborAt(v, idx)
	}
	return e.csrAdj[off+idx]
}

// sampleDials fills node v's row, the k slots from base of ds.rows:
// min(k, deg) distinct neighbours, dead targets and failed channels
// recorded as -1, without O(deg) scratch for small k. All randomness is
// drawn from ds, the stream of the shard that owns v.
func (e *Engine) sampleDials(v, base int, ds *dialState) {
	for j := 0; j < e.k; j++ {
		ds.rows[base+j] = Uninformed
	}
	off, deg := e.row(v)
	if deg == 0 { // an implicit view without a uniform degree, or no neighbour
		deg = e.degree(v)
	}
	if deg == 0 {
		return
	}
	if e.memory > 0 {
		e.sampleWithMemory(v, base, off, deg, ds)
		return
	}
	if e.cfg.DialStrategy == DialQuasirandom {
		e.sampleQuasirandom(v, base, off, deg, ds)
		return
	}
	kk := min(e.k, deg)
	// Sampler selection, stream-compatible with DistinctK in every arm:
	// k == 1 is a single IntN on either of DistinctK's branches, k <= 4 is
	// xrand's scratch-free Distinct2/3/4 at any degree (a virtual shuffle
	// below deg 64, rejection from there), and DistinctK with the shard's
	// scratch serves k >= 5 only.
	var picks [4]int
	var idxs []int
	switch {
	case kk == 1:
		picks[0] = ds.rng.IntN(deg)
		idxs = picks[:1]
	case kk == 2:
		picks[0], picks[1] = ds.rng.Distinct2(deg)
		idxs = picks[:2]
	case kk == 3:
		picks[0], picks[1], picks[2] = ds.rng.Distinct3(deg)
		idxs = picks[:3]
	case kk == 4:
		picks[0], picks[1], picks[2], picks[3] = ds.rng.Distinct4(deg)
		idxs = picks[:4]
	default:
		ds.dialIdx = ds.rng.DistinctK(ds.dialIdx, kk, deg, ds.scratchFor(deg))
		idxs = ds.dialIdx
	}
	failure := e.cfg.ChannelFailureProb
	if e.aliveBits != nil {
		// Partially-alive view: a dead target skips the slot before the
		// fault draw.
		for j, idx := range idxs {
			w := e.nbrAt(v, off, idx)
			if !e.aliveFast(int(w)) {
				continue
			}
			if failure > 0 && ds.rng.Bool(failure) {
				continue
			}
			ds.rows[base+j] = w
		}
		return
	}
	// Fully-alive view: the fault draw comes first (resolving draws nothing,
	// so the order is unobservable), and a failed channel costs no resolving.
	for j, idx := range idxs {
		if failure > 0 && ds.rng.Bool(failure) {
			continue
		}
		ds.rows[base+j] = e.nbrAt(v, off, idx)
	}
}

// sampleQuasirandom dials the next k entries of v's neighbour list,
// drawing a uniform start position on the first dial (Doerr et al.'s
// quasirandom model).
func (e *Engine) sampleQuasirandom(v, base, off, deg int, ds *dialState) {
	if e.listCursor[v] < 0 {
		e.listCursor[v] = int32(ds.rng.IntN(deg))
	}
	kk := min(e.k, deg)
	cur := int(e.listCursor[v])
	failure := e.cfg.ChannelFailureProb
	for j := 0; j < kk; j++ {
		idx := cur + j
		if idx >= deg {
			idx -= deg
		}
		w := e.nbrAt(v, off, idx)
		if e.aliveBits != nil && !e.aliveFast(int(w)) {
			continue // dead target: skip before the fault draw
		}
		if failure > 0 && ds.rng.Bool(failure) {
			continue
		}
		ds.rows[base+j] = w
	}
	e.listCursor[v] = int32((cur + kk) % deg)
}

// sampleWithMemory implements footnote 2's sequentialised model: one dial
// per round, chosen uniformly among neighbours not contacted in the last
// memory rounds. If every neighbour is recent (possible only when
// degree <= memory), the choice falls back to uniform.
func (e *Engine) sampleWithMemory(v, base, off, deg int, ds *dialState) {
	r := e.memory
	memBase := v * r
	choice := int32(-1)
	for attempt := 0; attempt < 4*deg+16; attempt++ {
		idx := ds.rng.IntN(deg)
		w := e.nbrAt(v, off, idx)
		recent := false
		for i := 0; i < r; i++ {
			if e.recent[memBase+i] == w {
				recent = true
				break
			}
		}
		if !recent {
			choice = w
			break
		}
	}
	if choice < 0 {
		choice = e.nbrAt(v, off, ds.rng.IntN(deg))
	}
	// Record the partner regardless of channel failure: the node dialled it.
	e.recent[memBase+e.recentPos[v]] = choice
	e.recentPos[v] = (e.recentPos[v] + 1) % r
	if e.aliveBits != nil && !e.aliveFast(int(choice)) {
		return // dead partner: recorded but no channel
	}
	if e.cfg.ChannelFailureProb > 0 && ds.rng.Bool(e.cfg.ChannelFailureProb) {
		return
	}
	ds.rows[base] = choice
}

// shardWord is word w of the walk over [lo, hi): the informed, alive ids if
// senders, else the alive ones (all on a fully-alive view). Keep inlinable.
func (e *Engine) shardWord(w, lo, hi int, senders bool) uint64 {
	m := ^uint64(0)
	if senders {
		m = e.informedBits[w]
	}
	if e.aliveBits != nil {
		m &= e.aliveBits[w]
	}
	if w == lo>>6 {
		m &= ^uint64(0) << (uint(lo) & 63)
	}
	if w == hi>>6 {
		m &= 1<<(uint(hi)&63) - 1
	}
	return m
}

// pushes reports whether v, visited by the walk of round t, pushes: under
// pushAll iff informed (all a senders walk visits), else by receipt round.
func (e *Engine) pushes(sh *parShard, v, t int, senders bool) bool {
	if sh.pushAll {
		return senders || e.informedFast(v)
	}
	ia := e.informedAt[v]
	return sh.sends && ia != Uninformed && int(ia) < t && e.pushDec[ia]
}

// wordRound reports whether shardPass hands a round of mode dial to a word
// kernel: a senders round (so no pull scan follows) of at most four dials
// per sender over a view row reads, with no fault draw, census key, dial
// memory or list cursor beside the dials. A partially-alive view (the churn
// overlay) qualifies: with no fault draw, liveness draws nothing, so a dead
// target is only a slot deliverSlots skips.
func (e *Engine) wordRound(dial dialMode) bool {
	c := &e.cfg
	return dial == dialSenders && e.k <= 4 &&
		(e.impNbrs == nil || e.uniDeg > 0) &&
		c.ChannelFailureProb == 0 && c.MessageLossProb == 0 && !c.TrackEdgeUse &&
		e.memory == 0 && c.DialStrategy == DialUniform
}

// dialWords is shardPass for a wordRound: any cohort mix, one to four dials
// per sender, in three stages. Draw: walk the senders in ascending id order
// and draw each one's min(k, deg) picks with sampleDials' arm (IntN,
// Distinct2/3/4), so the stream is the general pass's. Resolve and deliver
// (deliverSlots) whenever fewer than k slots remain, so transmissions and
// receipts are the general pass's too. No branch sits between two neighbour
// resolutions, so consecutive Feistel networks or CSR loads overlap. A
// sparse-frontier round is frontierWords'.
func (e *Engine) dialWords(sh *parShard, t int) {
	if int(e.frontier) == t {
		e.frontierWords(sh, t)
		return
	}
	var from, slot [64]int32 // each slot's sender; its slot
	c := 0
	for wi := sh.lo >> 6; wi<<6 < sh.hi; wi++ {
		for m := e.shardWord(wi, sh.lo, sh.hi, true); m != 0; m &= m - 1 {
			v := wi<<6 + bits.TrailingZeros64(m)
			if !e.pushes(sh, v, t, true) { // always true under pushAll
				continue
			}
			if off, deg := e.row(v); deg > 0 {
				c = e.queueDials(sh, v, off, deg, &from, &slot, c)
			}
		}
	}
	e.deliverSlots(sh, from[:c], slot[:c])
}

// frontierWords is dialWords for a sparse-frontier round. An unmarked
// sender's dials are counted, not sent, and its picks are skipped over in
// the stream (xrand.SkipRows), not drawn. The pass owes the stream those
// rows and pays them in one SkipRows call before the next sender that
// draws, when the owed rows' degree changes, and at the end of the pass, so
// every draw lands where the general pass makes it. Under wordWalk every
// sender pushes and dials min(k, uniDeg), so the walk visits only a word's
// marked senders and owes the rest by popcount. It is a loop of its own:
// folded into dialWords' loop, its state slowed the rounds that mark
// nothing (churn-ensemble's) by 4–8 %.
func (e *Engine) frontierWords(sh *parShard, t int) {
	var from, slot [64]int32 // each slot's sender; its slot
	rng, next := sh.ds.rng, sh.ds.next
	k, c := e.k, 0
	words := e.wordWalk(sh, t)
	owed, owedDeg := 0, e.uniDeg // unmarked senders' rows the stream owes, of degree owedDeg
	for wi := sh.lo >> 6; wi<<6 < sh.hi; wi++ {
		m := e.shardWord(wi, sh.lo, sh.hi, true)
		var u uint64 // under wordWalk, the word's unmarked senders not yet owed
		if words {
			u = m &^ next[wi]
			m ^= u
			sh.tx += int64(bits.OnesCount64(u) * min(k, owedDeg))
		}
		for ; m != 0; m &= m - 1 {
			if u != 0 { // the unmarked senders below v
				below := u & (m&-m - 1)
				owed += bits.OnesCount64(below)
				u ^= below
			}
			v := wi<<6 + bits.TrailingZeros64(m)
			if !e.pushes(sh, v, t, true) { // always true under pushAll
				continue
			}
			off, deg := e.row(v)
			if deg == 0 {
				continue
			}
			if next[uint(v)>>6]&(1<<(uint(v)&63)) == 0 {
				if deg != owedDeg {
					rng.SkipRows(min(k, owedDeg), owedDeg, owed)
					owed, owedDeg = 0, deg
				}
				owed++
				sh.tx += int64(min(k, deg))
				continue
			}
			if owed > 0 {
				rng.SkipRows(min(k, owedDeg), owedDeg, owed)
				owed = 0
			}
			c = e.queueDials(sh, v, off, deg, &from, &slot, c)
		}
		owed += bits.OnesCount64(u)
	}
	rng.SkipRows(min(k, owedDeg), owedDeg, owed)
	e.deliverSlots(sh, from[:c], slot[:c])
}

// queueDials draws sender v's min(k, deg) picks (its row's first CSR slot
// is off) and queues them at slot[c:] with v as their sender in from,
// delivering the queue first when fewer than k slots remain. It returns the
// queue's new length.
func (e *Engine) queueDials(sh *parShard, v, off, deg int, from, slot *[64]int32, c int) int {
	if c > len(slot)-e.k {
		e.deliverSlots(sh, from[:c], slot[:c])
		c = 0
	}
	rng, kk := sh.ds.rng, min(e.k, deg)
	switch kk {
	case 1:
		slot[c] = int32(off + rng.IntN(deg))
	case 2:
		p0, p1 := rng.Distinct2(deg)
		slot[c], slot[c+1] = int32(off+p0), int32(off+p1)
	case 3:
		p0, p1, p2 := rng.Distinct3(deg)
		slot[c], slot[c+1], slot[c+2] = int32(off+p0), int32(off+p1), int32(off+p2)
	default:
		p0, p1, p2, p3 := rng.Distinct4(deg)
		slot[c], slot[c+1], slot[c+2], slot[c+3] = int32(off+p0), int32(off+p1), int32(off+p2), int32(off+p3)
	}
	for j := c; j < c+kk; j++ {
		from[j] = int32(v)
	}
	return c + kk
}

// wordWalk reports whether sh's frontierWords pass of round t walks only the
// marked senders of each word: a sparse-frontier round in which every
// cohort counted in the shard pushes, over a view of one degree.
func (e *Engine) wordWalk(sh *parShard, t int) bool {
	return int(e.frontier) == t && sh.pushAll && e.uniDeg > 0
}

// deliverSlots is the word kernel's last two stages: resolve every slot to
// its target in one nbrAt loop (off + pick is the CSR slot, and the pick
// itself on an implicit view, so nbrAt(v, 0, slot) is the target either
// way), then count the transmissions and set every target's receipt bit in
// a loop of its own: with no neighbour arithmetic between two of them,
// many of these scattered writes are in flight at once. On a
// partially-alive view a dead target is a slot without a channel, as in
// sampleDials: no transmission and no receipt bit. That loop is its own
// (branch-free: the target's alive bit is both the count and the bit), so
// the fully-alive loop carries no liveness test.
func (e *Engine) deliverSlots(sh *parShard, from, slot []int32) {
	slot = slot[:len(from)]
	for i, v := range from {
		slot[i] = e.nbrAt(int(v), 0, int(slot[i]))
	}
	next := sh.ds.next
	if alive := e.aliveBits; alive != nil {
		var tx uint64
		for _, w := range slot {
			b := alive[uint(w)>>6] >> (uint(w) & 63) & 1
			tx += b
			next[uint(w)>>6] |= b << (uint(w) & 63)
		}
		sh.tx += int64(tx)
		return
	}
	sh.tx += int64(len(slot))
	for _, w := range slot {
		setBit(next, int(w))
	}
}

// shardPass runs one round for the nodes a shard owns: dial sampling, push
// transmissions, then pull transmissions, in ascending node order (both
// loops walk bitset words, shardWord), drawing only from the shard's own
// stream. It reads informedAt and informedBits, frozen until the merge, and
// writes only its dial rows, the shard's per-node dial memory/cursors and
// its borrowed receipt bitset, so concurrent shard passes never race.
func (e *Engine) shardPass(sh *parShard, t int, anyPull bool, dial dialMode, stride int) {
	if e.wordRound(dial) {
		e.dialWords(sh, t)
		return
	}
	census := e.cfg.TrackEdgeUse
	loss := e.cfg.MessageLossProb
	k := e.k
	senders := dial == dialSenders
	next := sh.ds.next

	for wi := sh.lo >> 6; wi<<6 < sh.hi; wi++ {
		for m := e.shardWord(wi, sh.lo, sh.hi, senders); m != 0; m &= m - 1 {
			v := wi<<6 + bits.TrailingZeros64(m)
			sender := e.pushes(sh, v, t, senders)
			if !sender && dial != dialEveryone {
				continue
			}
			base := (v - sh.lo) * stride
			if dial != dialSampled {
				e.sampleDials(v, base, &sh.ds)
			}
			if !sender {
				continue
			}
			for j := 0; j < k; j++ {
				w := sh.ds.rows[base+j]
				if w < 0 {
					continue
				}
				sh.tx++
				if census {
					sh.usedBuf = append(sh.usedBuf, edgeKey(v, int(w)))
				}
				if loss > 0 && sh.ds.rng.Bool(loss) {
					continue
				}
				setBit(next, int(w))
			}
		}
	}

	if !anyPull {
		return
	}
	// Pull is evaluated caller-side: every channel v→w the shard's nodes
	// dialled lets an informed, pulling callee w answer the caller v. The
	// receiver is always the shard's own node v.
	for wi := sh.lo >> 6; wi<<6 < sh.hi; wi++ {
		for m := e.shardWord(wi, sh.lo, sh.hi, false); m != 0; m &= m - 1 {
			v := wi<<6 + bits.TrailingZeros64(m)
			for _, w := range sh.ds.rows[(v-sh.lo)*stride:][:k] {
				if w < 0 {
					continue
				}
				// Every occupied cohort pulls: the callee answers iff informed,
				// one bit. Otherwise its receipt round decides.
				if e.pullAll {
					if !e.informedFast(int(w)) {
						continue
					}
				} else if wia := e.informedAt[w]; wia == Uninformed || int(wia) >= t || !e.pullDec[wia] {
					continue
				}
				sh.tx++
				if census {
					sh.usedBuf = append(sh.usedBuf, edgeKey(v, int(w)))
				}
				if loss > 0 && sh.ds.rng.Bool(loss) {
					continue
				}
				setBit(next, v)
			}
		}
	}
}
