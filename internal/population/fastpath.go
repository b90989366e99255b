// The population engine's apply arms: table-compiled transitions with an
// exact occupancy vector, a protocol's own whole-block kernel, and the
// uncompiled interface call.
//
// Both schedulers have one super-step (population.go): pairStep draws every
// pair through xrand.FillPairDraws and hands each block to apply; ringStep
// runs ringShard over each agent range. compile picks the arm once, at
// construction, by protocol capability, and every arm is bit-identical to
// the uncompiled one — same streams, same trace, same observer events —
// for every Workers × shard-count combination (the fastpath tests pin committed
// digests for both):
//
//   - Table (TableProtocol): when the declared state space fits
//     (StateBound ≤ MaxTableStates) and the declared coin arity is small,
//     Transition is compiled into a flat dense []uint64 table indexed by
//     ((a<<k)|b)<<c | coin-bits, each word packing the next pair plus its
//     changed-agent count — the apply loop's interface call becomes a
//     slice load. The loop keeps a per-state occupancy vector exact under
//     Init and every transition; a CountsProtocol then measures through
//     MeasureCounts, an O(states) fold, instead of the O(n) scan.
//     RingTableProtocol is the synchronous twin: NeedsCoin and Update
//     compile into tables the ring pass indexes the same way.
//   - Batch (BatchProtocol): a protocol too large to tabulate applies
//     each pre-drawn block in its own devirtualised loop.
//   - Uncompiled: one Transition call per pair. Config.DisableFastPath
//     selects it (and the uncompiled ring pass) for any protocol.
//
// A protocol that misdeclares its bounds cannot corrupt the run: the
// compiler verifies every initial state and every table output against
// StateBound and declines (leaving the uncompiled arm) on any violation,
// so table indices stay in range by induction.
package population

import "math/bits"

// TableProtocol is the optional PairProtocol extension behind the table
// arm: protocols with a small declared state space and coin arity have
// their Transition compiled into a dense lookup table at engine
// construction.
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
// implements MeasureCounts. It engages alongside a compiled transition
// table (the protocol must also be a TableProtocol that compiles): the
// table arm keeps the counts vector exact, and the engine replaces the
// O(n) per-step configuration scan with an O(states) fold.
// MeasureCounts(counts) must equal Measure(cfg) whenever counts is the
// exact occupancy of cfg.
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
// committed-digest tests pin this — which lets the concrete transition
// logic inline into one tight loop instead of paying an interface call
// per interaction. It engages when the table does not compile.
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
	// fuseBlock is the single-threaded draw/apply interleave grain: small
	// enough that a block of PairDraws lives in L1 between fill and apply,
	// large enough to amortise the two calls per block.
	fuseBlock = 256
)

// compile chooses the run's apply arm, once, at construction. It never
// changes a trace: every arm is bit-identical to the uncompiled one.
func (e *engine) compile() {
	switch {
	case e.cfg.DisableFastPath: // the uncompiled arms
	case e.cfg.Ring != nil:
		e.compileRingTable()
	default:
		if e.compileTable(); e.table == nil {
			e.batch, _ = e.cfg.Pair.(BatchProtocol)
		}
	}
}

// tableShape validates a declared state bound s and coin arity c for
// either table compiler and returns the state index width k. It declines
// a shape past the table caps and an initial configuration that escapes
// the declared space.
func (e *engine) tableShape(s, c int) (k uint, ok bool) {
	if s < 1 || s > MaxTableStates || c < 0 || c > maxTableCoinBits {
		return 0, false
	}
	k = uint(bits.Len(uint(s - 1)))
	if 2*k+uint(c) > maxTableBits {
		return 0, false
	}
	for _, st := range e.states {
		if st >= State(s) {
			return 0, false
		}
	}
	return k, true
}

// compileTable compiles PairProtocol.Transition into the dense table and
// seeds the occupancy vector from the initial configuration.
func (e *engine) compileTable() {
	tp, ok := e.cfg.Pair.(TableProtocol)
	if !ok {
		return
	}
	s, c := tp.StateBound(), tp.CoinBits()
	k, ok := e.tableShape(s, c)
	if !ok {
		return
	}
	bound := State(s)
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
	counts := make([]int64, s)
	for _, st := range e.states {
		counts[st]++
	}
	e.table, e.counts = table, counts
	e.tshift, e.tcoin = uint32(k), uint32(c)
	e.countsProto, _ = tp.(CountsProtocol)
}

// compileRingTable compiles RingProtocol.NeedsCoin and .Update into
// dense tables for the synchronous driver.
func (e *engine) compileRingTable() {
	tp, ok := e.cfg.Ring.(RingTableProtocol)
	if !ok {
		return
	}
	s, c := tp.StateBound(), tp.CoinBits()
	k, ok := e.tableShape(s, c)
	if !ok {
		return
	}
	needs := make([]bool, 1<<(2*k))
	upd := make([]State, 1<<(2*k+uint(c)))
	for self := 0; self < s; self++ {
		for pred := 0; pred < s; pred++ {
			si := (self << k) | pred
			needs[si] = tp.NeedsCoin(State(self), State(pred))
			for coin := 0; coin < 1<<c; coin++ {
				nv := tp.Update(State(self), State(pred), uint64(coin))
				if nv >= State(s) {
					return // Update escaped the declared space
				}
				upd[si<<c|coin] = nv
			}
		}
	}
	e.ringNeeds, e.ringUpd = needs, upd
	e.tshift, e.tcoin = uint32(k), uint32(c)
}

// apply applies one pre-drawn block through the run's arm. Transitions
// always apply sequentially in shard order — only drawing parallelises —
// so this is called from one goroutine.
func (e *engine) apply(pairs []PairDraw) int {
	switch {
	case e.table != nil:
		return applyTable(pairs, e.states, e.table, e.counts, e.tshift, e.tcoin)
	case e.batch != nil:
		return e.batch.ApplyPairs(e.states, pairs)
	default:
		return applyShard(pairs, e.states, e.cfg.Pair)
	}
}

// applyShard is the uncompiled arm: one Transition interface call per
// interaction, over a pre-drawn block with unconditional stores. The
// apply arms are free functions with minimal live state so the hot loops
// stay register-resident — the out-of-order window then spans enough
// iterations to overlap the uniform-random state misses on its own.
func applyShard(pairs []PairDraw, states []State, proto PairProtocol) (changed int) {
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

// applyTable is the table arm: the interface call becomes a load from
// the compiled table, with the changed-agent count packed in the same
// word. The ±1 pair for an agent that did not change cancels itself, so
// updating both agents' counts under one branch is exact; skipping fully
// quiet interactions keeps the counter read-modify-write chains off the
// quiescent-phase hot loop.
func applyTable(pairs []PairDraw, states []State, table []uint64, counts []int64, k, c uint32) (changed int) {
	cmask := uint32(1)<<c - 1
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

// ringShard computes the next state of one shard's agent range: table
// loads when the ring table compiled, two interface calls per agent
// otherwise. The predecessor state is carried across the iteration
// instead of re-read through a modulo index.
func (e *engine) ringShard(sh *popShard) {
	states, next := e.states, e.next
	lo, hi := sh.lo, sh.hi
	pred := states[(lo-1+e.n)%e.n]
	sh.changed = 0
	if e.ringUpd != nil {
		needs, upd := e.ringNeeds, e.ringUpd
		k, c := e.tshift, e.tcoin
		cmask := uint64(1)<<c - 1
		for v := lo; v < hi; v++ {
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
		return
	}
	proto := e.cfg.Ring
	for v := lo; v < hi; v++ {
		self := states[v]
		var coin uint64
		if proto.NeedsCoin(self, pred) {
			coin = sh.stream.Uint64()
		}
		nv := proto.Update(self, pred, coin)
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
