package phonecall

// This file is the zero-interface hot path of the engine. When the
// topology exposes an epoch-stamped view — CSR arrays (CSRViewer; frozen
// Static graphs and the churning overlay alike) or computable adjacency
// (ImplicitViewer) — and Config.DisableFastPath is unset, NewEngine
// fetches the view once and the shard pass runs against raw slices: no
// Topology.Degree/Neighbor/Alive dynamic dispatch in dial sampling, the
// push loop, or the pull scan, and for k <= 4 the scratch-free distinct
// samplers (xrand.Distinct2/3/4) at every degree instead of DistinctK. On
// a churning topology the view is re-fetched only when its epoch advances
// (refreshCSR, once per Step), and liveness is a bitset probe (aliveFast)
// placed exactly where the reference path calls Topology.Alive; "is the
// target informed?" is one too (informedFast, over the bitset NewEngine
// keeps beside informedAt), where the reference path loads informedAt. The
// Config.TrackEdgeUse census is the reference path's own: both passes
// buffer edge keys and the merge applies them through markUsed.
//
// Contract: for identical Config (minus DisableFastPath) and seed, the
// fast path produces bit-identical Results to the reference interface
// path, because it consumes the PRNG stream draw-for-draw identically:
// the small-k samplers are stream-compatible with DistinctK, alive checks
// draw no randomness (bitset probes on churn views, vacuous on frozen
// graphs), and both paths make the same Bool draw per fault decision.
// Golden tests (fastpath_test.go) pin this across the
// E1–E20 configuration matrix and across churn overlay configurations.
//
// The CSR and implicit views share every sampler body; they differ only
// in how sampleDialsFast locates a row and how its idx-th entry is read
// (nbrAt). Because NeighborAt draws none of the run's randomness and
// ImplicitNeighbors must enumerate exactly the rows a materialised CSR
// view would hold, a run over graph.Implicit `f` is bit-identical to the
// same run over Static{Materialize(f)} — the implicit facade tests pin
// this across engines and worker counts.

// nbrAt is the fast path's one neighbour resolver: the idx-th entry of
// v's row (off is the row's first CSR slot, unused on an implicit view),
// loaded from the CSR array or computed by the implicit family. It must
// stay inlinable into the samplers below (`go build -gcflags=-m` reports
// "can inline (*Engine).nbrAt"); with the row lookup in sampleDialsFast
// it is the fast path's only implicit/dense branch.
func (e *Engine) nbrAt(v, off, idx int) int32 {
	if e.impNbrs != nil {
		return e.impNbrs.NeighborAt(v, idx)
	}
	return e.csrAdj[off+idx]
}

// sampleDialsFast is the fast twin of sampleDialsFor: it fills node v's
// row, the k slots from base of ds.rows, without Topology interface calls
// or, for small k, O(deg) scratch.
func (e *Engine) sampleDialsFast(v, base int, ds *dialState) {
	for j := 0; j < e.k; j++ {
		ds.rows[base+j] = Uninformed
	}
	var off, deg int
	if e.impNbrs != nil {
		deg = e.impNbrs.Degree(v)
	} else {
		off = int(e.csrOff[v])
		deg = int(e.csrOff[v+1]) - off
	}
	if deg == 0 {
		return
	}
	if e.cfg.AvoidRecent > 0 {
		e.sampleWithMemoryFast(v, base, off, deg, ds)
		return
	}
	if e.cfg.DialStrategy == DialQuasirandom {
		e.sampleQuasirandomFast(v, base, off, deg, ds)
		return
	}
	kk := e.k
	if kk > deg {
		kk = deg
	}
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
		// fault draw, exactly like the reference path's Alive(w) check.
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
	// Fully-alive view: the fault draw comes before the neighbour is
	// resolved. The order between the two is unobservable (resolving
	// consumes no run randomness), and a failed channel then costs no
	// replay work on streamed implicit families.
	for j, idx := range idxs {
		if failure > 0 && ds.rng.Bool(failure) {
			continue
		}
		ds.rows[base+j] = e.nbrAt(v, off, idx)
	}
}

// sampleQuasirandomFast is the fast twin of sampleQuasirandom.
func (e *Engine) sampleQuasirandomFast(v, base, off, deg int, ds *dialState) {
	if e.listCursor[v] < 0 {
		e.listCursor[v] = int32(ds.rng.IntN(deg))
	}
	kk := e.k
	if kk > deg {
		kk = deg
	}
	cur := int(e.listCursor[v])
	failure := e.cfg.ChannelFailureProb
	for j := 0; j < kk; j++ {
		idx := cur + j
		if idx >= deg {
			idx -= deg
		}
		w := e.nbrAt(v, off, idx)
		if e.aliveBits != nil && !e.aliveFast(int(w)) {
			continue // dead target: skip before the fault draw (reference order)
		}
		if failure > 0 && ds.rng.Bool(failure) {
			continue
		}
		ds.rows[base+j] = w
	}
	e.listCursor[v] = int32((cur + kk) % deg)
}

// sampleWithMemoryFast is the fast twin of sampleWithMemory (footnote 2's
// sequentialised model: one dial per round avoiding recent partners).
func (e *Engine) sampleWithMemoryFast(v, base, off, deg int, ds *dialState) {
	r := e.cfg.AvoidRecent
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
		return // dead partner: recorded but no channel (reference order)
	}
	if e.cfg.ChannelFailureProb > 0 && ds.rng.Bool(e.cfg.ChannelFailureProb) {
		return
	}
	ds.rows[base] = choice
}

// shardPassFast is the fast twin of shardPass: one round for the node
// range a shard owns, drawing only from the shard's own stream.
func (e *Engine) shardPassFast(sh *parShard, t int, anyPull bool, dial dialMode, stride int) {
	census := e.cfg.TrackEdgeUse
	loss := e.cfg.MessageLossProb
	k := e.k

	for v := sh.lo; v < sh.hi; v++ {
		// Receipt round first, liveness last: in sender-sparse rounds
		// almost every node fails the cohort test, which is one load.
		ia := e.informedAt[v]
		sender := sh.sends && ia != Uninformed && int(ia) < t && e.pushDec[ia] && e.aliveFast(v)
		if !sender && (dial != dialEveryone || !e.aliveFast(v)) {
			continue
		}
		base := (v - sh.lo) * stride
		if dial != dialSampled {
			e.sampleDialsFast(v, base, &sh.ds)
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
			if !e.informedFast(int(w)) && e.aliveFast(int(w)) {
				sh.outbox = append(sh.outbox, w)
			}
		}
	}

	if !anyPull {
		return
	}
	for v := sh.lo; v < sh.hi; v++ {
		if !e.aliveFast(v) {
			continue
		}
		uninformedCaller := e.informedAt[v] == Uninformed
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
			if uninformedCaller {
				sh.outbox = append(sh.outbox, int32(v))
			}
		}
	}
}
