// The population engine's fast path: table-compiled transitions, an
// incremental occupancy measure, and batched pair draws.
//
// The reference is the plain interface-dispatch loop in population.go (the
// interpreter); the fast path below is pinned bit-identical to it — same
// streams, same trace, same observer events — for every Workers × Shards
// combination. The interpreter runs only for a protocol that declines to
// compile (and under Config.DisableFastPath, which bench/ alone sets). The
// fast path engages automatically; its three components engage
// independently, by protocol capability:
//
//   - Batched draws (always, pair driver): each shard's interaction quota
//     is filled by xrand.FillPairDraws, which keeps the xoshiro state in
//     registers for the whole block and consumes the stream exactly as
//     the scalar IntN/IntN/Uint64 loop would.
//   - Devirtualised transitions (TableProtocol): when the declared state
//     space fits (StateBound ≤ MaxTableStates) and the declared coin
//     arity is small, Transition is compiled into a flat dense []uint64
//     table indexed by ((a<<k)|b)<<c | coin-bits, each word packing the
//     next pair plus its changed-agent count — the apply loop's interface
//     call becomes a slice load. RingTableProtocol is the synchronous
//     twin: NeedsCoin and Update compile into tables the ring pass
//     indexes the same way.
//   - Incremental measure (CountsProtocol): the engine keeps an exact
//     per-state occupancy vector under Init and every applied transition,
//     so the per-super-step Measure becomes an O(states) fold
//     (MeasureCounts) instead of an O(n) configuration scan.
//
// A protocol that misdeclares its bounds cannot corrupt the run: the
// compiler verifies every initial state and every table output against
// StateBound and declines (falling back to the reference behaviour of
// that component) on any violation, so table indices stay in range by
// induction.
package population

import (
	"math/bits"

	"regcast/internal/sched"
)

// TableProtocol is the optional PairProtocol extension behind the
// devirtualised fast path: protocols with a small declared state space
// and coin arity have their Transition compiled into a dense lookup
// table at engine construction.
type TableProtocol interface {
	PairProtocol
	// StateBound returns S: every state Init emits and Transition returns
	// is < S. The transition table engages when S <= MaxTableStates.
	StateBound() int
	// CoinBits returns c, the coin arity: Transition consults only the
	// low c bits of its coin word (0 for deterministic protocols). Coin
	// words are always drawn in full, so declaring c never changes the
	// stream — only how many coin columns the table needs.
	CoinBits() int
}

// CountsProtocol is the optional measure-through-occupancy extension: a
// protocol whose Measure factors through the per-state occupancy vector
// implements MeasureCounts, and the engine replaces the O(n) per-step
// configuration scan with an incrementally maintained counts vector and
// an O(states) fold. MeasureCounts(counts) must equal Measure(cfg)
// whenever counts is the exact occupancy of cfg.
type CountsProtocol interface {
	StateBound() int
	MeasureCounts(counts []int64) int
}

// RingTableProtocol is TableProtocol's synchronous twin for the ring
// driver: NeedsCoin and Update compile into dense tables. Update must
// consult only the low CoinBits bits of its coin word.
type RingTableProtocol interface {
	RingProtocol
	StateBound() int
	CoinBits() int
}

// BatchProtocol is the devirtualisation hook for pair protocols whose
// state space is too large to table-compile (LeaderElection carries 25
// state bits, so a dense table is off the menu): ApplyPairs applies
// Transition to every pre-drawn pair in slice order, in place, and
// returns how many agent states changed. Implementations must be
// observationally identical to calling Transition per pair — the
// fast≡reference matrix tests pin this — which lets the concrete
// transition logic inline into one tight loop instead of paying an
// interface call per interaction. It engages only when the incremental
// counts vector is not in play (ApplyPairs does not maintain counts).
type BatchProtocol interface {
	PairProtocol
	ApplyPairs(states []State, pairs []PairDraw) (changed int)
}

const (
	// MaxTableStates is the largest declared state space the table
	// compiler accepts: 256 states fill a 64K-entry (512 KiB) table at
	// coin arity 0, comfortably cache-resident.
	MaxTableStates = 256
	// maxTableCoinBits caps the coin columns per (a, b) cell.
	maxTableCoinBits = 8
	// maxTableBits caps the total table index width (2k+c), bounding the
	// table at 1<<20 words = 8 MiB.
	maxTableBits = 20
	// maxCountsStates caps the incremental occupancy vector (512 KiB of
	// int64 at the cap); the counts path needs no table, so it accepts
	// wider state spaces than the transition compiler.
	maxCountsStates = 1 << 16
	// fuseBlock is the single-threaded draw/apply interleave grain: small
	// enough that a block of PairDraws lives in L1 between fill and apply,
	// large enough to amortise the two calls per block.
	fuseBlock = 256
)

// compileFastPath decides, once, at construction, which fast-path
// components this run can use. It never changes a trace: every compiled
// component is bit-identical to the reference behaviour it replaces.
func (e *engine) compileFastPath() {
	if e.cfg.DisableFastPath {
		return
	}
	if e.cfg.Ring != nil {
		e.compileRingTable()
		return
	}
	e.fast = true // batched draws engage for every pair protocol
	if _, ok := e.cfg.Observer.(InteractionObserver); ok {
		// Per-interaction observation keeps the reference apply loop (the
		// callback dominates it) and the scan measure (counts are
		// maintained only by the specialised apply loops).
		return
	}
	e.compileCounts()
	e.compileTable()
	if e.table == nil && e.counts == nil {
		e.batch, _ = e.cfg.Pair.(BatchProtocol)
	}
}

// compileCounts engages the incremental occupancy vector when the
// protocol supports it and the initial configuration respects the
// declared bound.
func (e *engine) compileCounts() {
	cp, ok := e.cfg.Pair.(CountsProtocol)
	if !ok {
		return
	}
	s := cp.StateBound()
	if s < 1 || s > maxCountsStates {
		return
	}
	bound := State(s)
	counts := make([]int64, s)
	for _, st := range e.states {
		if st >= bound {
			return // Init escaped the declared space: keep the scan
		}
		counts[st]++
	}
	e.counts, e.countsProto = counts, cp
}

// compileTable compiles PairProtocol.Transition into the dense table.
func (e *engine) compileTable() {
	tp, ok := e.cfg.Pair.(TableProtocol)
	if !ok {
		return
	}
	s, c := tp.StateBound(), tp.CoinBits()
	if s < 1 || s > MaxTableStates || c < 0 || c > maxTableCoinBits {
		return
	}
	k := uint(bits.Len(uint(s - 1)))
	if 2*k+uint(c) > maxTableBits {
		return
	}
	bound := State(s)
	for _, st := range e.states {
		if st >= bound {
			return
		}
	}
	table := make([]uint64, 1<<(2*k+uint(c)))
	for a := 0; a < s; a++ {
		for b := 0; b < s; b++ {
			for coin := 0; coin < 1<<c; coin++ {
				na, nb := tp.Transition(State(a), State(b), uint64(coin))
				if na >= bound || nb >= bound {
					return // Transition escaped the declared space
				}
				w := uint64(na) | uint64(nb)<<8
				if na != State(a) {
					w += 1 << 16
				}
				if nb != State(b) {
					w += 1 << 16
				}
				table[((a<<k)|b)<<c|coin] = w
			}
		}
	}
	e.table = table
	e.tshift = uint32(k)
	e.tcoin = uint32(c)
}

// compileRingTable compiles RingProtocol.NeedsCoin and .Update into
// dense tables for the synchronous driver.
func (e *engine) compileRingTable() {
	tp, ok := e.cfg.Ring.(RingTableProtocol)
	if !ok {
		return
	}
	s, c := tp.StateBound(), tp.CoinBits()
	if s < 1 || s > MaxTableStates || c < 0 || c > maxTableCoinBits {
		return
	}
	k := uint(bits.Len(uint(s - 1)))
	if 2*k+uint(c) > maxTableBits {
		return
	}
	bound := State(s)
	for _, st := range e.states {
		if st >= bound {
			return
		}
	}
	needs := make([]bool, 1<<(2*k))
	upd := make([]State, 1<<(2*k+uint(c)))
	for self := 0; self < s; self++ {
		for pred := 0; pred < s; pred++ {
			si := (self << k) | pred
			needs[si] = tp.NeedsCoin(State(self), State(pred))
			for coin := 0; coin < 1<<c; coin++ {
				nv := tp.Update(State(self), State(pred), uint64(coin))
				if nv >= bound {
					return
				}
				upd[si<<c|coin] = nv
			}
		}
	}
	e.ringNeeds, e.ringUpd = needs, upd
	e.tshift = uint32(k)
	e.tcoin = uint32(c)
	e.fast = true
}

// fastPairStep is pairStep's fast twin: batched draws, then the most
// specialised apply loop the compiled components allow. Single-threaded
// runs fuse the two phases per shard — the shard's pair block is drawn
// and applied while still cache-resident instead of round-tripping the
// whole super-step's buffers through memory; with workers the draw
// phase fans out first, exactly like the reference path. Both shapes
// consume the per-shard streams identically, so the trace cannot
// depend on the choice.
func (e *engine) fastPairStep(step int) (interactions, changed int) {
	if _, ok := e.cfg.Observer.(InteractionObserver); ok {
		// Per-interaction observation keeps the reference apply loop;
		// only the batched draws engage.
		if e.workers <= 1 {
			for i := range e.shards {
				e.fastDrawPairs(&e.shards[i])
			}
		} else {
			sched.Pool(e.workers, len(e.shards), func(i int) { e.fastDrawPairs(&e.shards[i]) })
		}
		return e.applyPairs(step)
	}
	if e.workers <= 1 {
		// Fused draw/apply in micro-blocks: one xoshiro stream is a
		// serial dependency chain (~12 cycles per pair), so a separate
		// draw phase is latency-bound while the apply phase is
		// throughput-bound. Alternating small blocks lets the
		// out-of-order core overlap the next block's generator chain
		// with the previous block's apply work, and the block stays in
		// L1 between fill and apply. Stream consumption and apply order
		// are exactly those of the phase-separated shape, so the trace
		// cannot depend on the choice.
		for i := range e.shards {
			sh := &e.shards[i]
			q := sh.qhi - sh.qlo
			sh.pairs = sh.pairs[:q]
			interactions += q
			for off := 0; off < q; off += fuseBlock {
				end := off + fuseBlock
				if end > q {
					end = q
				}
				blk := sh.pairs[off:end]
				sh.stream.FillPairDraws(blk, e.n)
				changed += e.applyShardFast(blk)
			}
		}
		return interactions, changed
	}
	sched.Pool(e.workers, len(e.shards), func(i int) { e.fastDrawPairs(&e.shards[i]) })
	for i := range e.shards {
		pairs := e.shards[i].pairs
		interactions += len(pairs)
		changed += e.applyShardFast(pairs)
	}
	return interactions, changed
}

// applyShardFast applies one shard's pre-drawn block through the most
// specialised loop available. Transitions always apply sequentially in
// shard order — only drawing parallelises — so this is called from one
// goroutine.
func (e *engine) applyShardFast(pairs []pairDraw) int {
	switch {
	case e.table != nil && e.counts != nil:
		return applyTableShardCounts(pairs, e.states, e.table, e.counts, e.tshift, e.tcoin, uint32(1)<<e.tcoin-1)
	case e.table != nil:
		return applyTableShard(pairs, e.states, e.table, e.tshift, e.tcoin, uint32(1)<<e.tcoin-1)
	case e.batch != nil:
		return e.batch.ApplyPairs(e.states, pairs)
	case e.counts != nil:
		return applyShardCounts(pairs, e.states, e.counts, e.cfg.Pair)
	default:
		return applyShard(pairs, e.states, e.cfg.Pair)
	}
}

// fastDrawPairs fills a shard's full quota through the block sampler —
// the same stream consumption as drawPairs, with the generator state in
// registers across the block.
func (e *engine) fastDrawPairs(sh *popShard) {
	sh.pairs = sh.pairs[:sh.qhi-sh.qlo]
	sh.stream.FillPairDraws(sh.pairs, e.n)
}

// applyShard is the fast apply loop for protocols without a compiled
// table: still one Transition interface call per interaction, but over
// a pre-drawn block with unconditional stores. The per-shard apply
// helpers are free functions with minimal live state so the hot loops
// stay register-resident — the out-of-order window then spans enough
// iterations to overlap the uniform-random state misses on its own.
func applyShard(pairs []pairDraw, states []State, proto PairProtocol) (changed int) {
	for j := range pairs {
		d := pairs[j]
		sa, sb := states[d.A], states[d.B]
		na, nb := proto.Transition(sa, sb, d.Coin)
		states[d.A] = na
		states[d.B] = nb
		changed += b2i(na != sa) + b2i(nb != sb)
	}
	return changed
}

func applyShardCounts(pairs []pairDraw, states []State, counts []int64, proto PairProtocol) (changed int) {
	for j := range pairs {
		d := pairs[j]
		sa, sb := states[d.A], states[d.B]
		na, nb := proto.Transition(sa, sb, d.Coin)
		states[d.A] = na
		states[d.B] = nb
		if na != sa || nb != sb {
			changed += b2i(na != sa) + b2i(nb != sb)
			// The ±1 pair for an agent that did not change cancels
			// itself, so updating both agents under one branch is exact;
			// skipping fully quiet interactions keeps the counter
			// read-modify-write chains off the quiescent-phase hot loop.
			counts[sa]--
			counts[na]++
			counts[sb]--
			counts[nb]++
		}
	}
	return changed
}

// applyTableShard is the devirtualised apply loop: the interface call
// becomes a load from the compiled table, with the changed-agent count
// packed in the same word.
func applyTableShard(pairs []pairDraw, states []State, table []uint64, k, c, cmask uint32) (changed int) {
	for j := range pairs {
		d := pairs[j]
		sa, sb := states[d.A], states[d.B]
		w := table[(sa<<k|sb)<<c|State(uint32(d.Coin)&cmask)]
		na, nb := State(w&0xFF), State(w>>8&0xFF)
		states[d.A] = na
		states[d.B] = nb
		changed += int(w >> 16 & 3)
	}
	return changed
}

func applyTableShardCounts(pairs []pairDraw, states []State, table []uint64, counts []int64, k, c, cmask uint32) (changed int) {
	for j := range pairs {
		d := pairs[j]
		sa, sb := states[d.A], states[d.B]
		w := table[(sa<<k|sb)<<c|State(uint32(d.Coin)&cmask)]
		na, nb := State(w&0xFF), State(w>>8&0xFF)
		states[d.A] = na
		states[d.B] = nb
		if w>>16 != 0 {
			changed += int(w >> 16 & 3)
			counts[sa]--
			counts[na]++
			counts[sb]--
			counts[nb]++
		}
	}
	return changed
}

// ringPassTable is ringPass with the two interface calls per agent
// replaced by table loads, and the predecessor state carried across the
// iteration instead of re-read through a modulo index.
func (e *engine) ringPassTable(sh *popShard) {
	needs, upd := e.ringNeeds, e.ringUpd
	k, c := e.tshift, e.tcoin
	cmask := uint64(1)<<c - 1
	states, next := e.states, e.next
	n := e.n
	sh.changed = 0
	pred := states[(sh.lo-1+n)%n]
	for v := sh.lo; v < sh.hi; v++ {
		self := states[v]
		si := self<<k | pred
		var coin uint64
		if needs[si] {
			coin = sh.stream.Uint64()
		}
		nv := upd[uint64(si)<<c|coin&cmask]
		next[v] = nv
		sh.changed += b2i(nv != self)
		pred = self
	}
}

// b2i is the branchless bool-to-int the apply loops use for changed
// accounting (the compiler lowers it to a flag set, not a branch).
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}
