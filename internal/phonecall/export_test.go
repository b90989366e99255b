package phonecall

import (
	"math/bits"

	"regcast/internal/graph"
	"regcast/internal/xrand"
)

// ShardState is one shard's node range, cohort counts and latest skip
// decision, exposed to the tests in package phonecall_test (which can
// import the real protocol and overlay packages; this package cannot).
type ShardState struct {
	Lo, Hi int
	Cohort []int32
	Sends  bool
}

// ShardStates returns a view of every shard's state; Cohort aliases the
// engine's own counts.
func (e *Engine) ShardStates() []ShardState {
	out := make([]ShardState, len(e.shards))
	for i := range e.shards {
		sh := &e.shards[i]
		out[i] = ShardState{sh.lo, sh.hi, sh.cohort, sh.sends}
	}
	return out
}

// LiveInformedAt returns the engine's receipt-round array itself, not the
// copy a Result carries.
func (e *Engine) LiveInformedAt() []int32 { return e.informedAt }

// NewViewTopo is newViewTopo for package phonecall_test: g as a CSRViewer
// whose listed ids are dead.
func NewViewTopo(g *graph.Graph, dead ...int) Topology { return newViewTopo(g, dead...) }

// ShardWalk runs the shard pass's word walk over [lo, hi) in round t on an
// engine holding only the given receipt rounds (its informed bitset built
// from them), alive bitset (nil = every id alive) and push decisions. It
// returns the ids the walk visits, in order, and whether the pass treats
// each as pushing: senders selects a dialSenders round's walk, pushAll the
// shard's every-cohort-pushes flag.
func ShardWalk(informedAt []int32, alive []uint64, pushDec []bool, lo, hi, t int, senders, pushAll bool) (visited []int, pushing []bool) {
	e := &Engine{informedAt: informedAt, informedBits: make([]uint64, (len(informedAt)+63)/64), aliveBits: alive, pushDec: pushDec}
	for v, ia := range informedAt {
		if ia != Uninformed {
			e.informedBits[v>>6] |= 1 << (uint(v) & 63)
		}
	}
	sh := &parShard{lo: lo, hi: hi, sends: true, pushAll: pushAll}
	for wi := lo >> 6; wi<<6 < hi; wi++ {
		for m := e.shardWord(wi, lo, hi, senders); m != 0; m &= m - 1 {
			v := wi<<6 + bits.TrailingZeros64(m)
			visited = append(visited, v)
			pushing = append(pushing, e.pushes(sh, v, t, senders))
		}
	}
	return visited, pushing
}

// WordKernelShards counts the sending shards whose pass in the latest
// round, round t, ran the word kernel (dialWords) instead of the general
// walk, and reports whether t was a senders round (no pull scan). The dial
// mode is round's (roundDial), from whether any occupied cohort pulled in
// round t.
func (e *Engine) WordKernelShards(t int) (kernel int, sendersRound bool) {
	anyPull := false
	for i := range e.shards {
		for ia, c := range e.shards[i].cohort[:t] {
			anyPull = anyPull || c > 0 && e.pullDec[ia]
		}
	}
	dial := e.roundDial(dialSenders, anyPull)
	for i := range e.shards {
		if e.shards[i].sends && e.wordRound(dial) {
			kernel++
		}
	}
	return kernel, dial == dialSenders
}

// LiveInformedBits returns the engine's informed bitset itself.
func (e *Engine) LiveInformedBits() []uint64 { return e.informedBits }

// View names the view the engine reads its topology through: "csr",
// "implicit" (the topology's own ImplicitViewer) or "interface".
func (e *Engine) View() string {
	switch e.impView.(type) {
	case nil:
		return "csr"
	case *interfaceView:
		return "interface"
	}
	return "implicit"
}

// PullAll reports whether the latest round's pull scan probed the informed
// bitset alone (every occupied cohort pulled) instead of loading receipt
// rounds.
func (e *Engine) PullAll() bool { return e.pullAll }

// RowBuffers counts the pull-round row scratches the engine has made: every
// one is back in the free list once Run has returned.
func (e *Engine) RowBuffers() int { return len(e.rowFree) }

// StreamStates copies every shard's PRNG stream: two equal snapshots mean
// no shard pass drew anything in between.
func (e *Engine) StreamStates() []xrand.Rand {
	out := make([]xrand.Rand, len(e.shards))
	for i := range e.shards {
		out[i] = *e.shards[i].ds.rng
	}
	return out
}

// Settled reports whether the MultiEngine's engine ever settled (Engine.Run
// does that; round, which the two share, must not).
func (e *MultiEngine) Settled() bool { return e.eng.cohortDials != nil }

// ReceiptBitsets counts the receipt bitsets the engine has made and the
// words still set in any of them. Between rounds every bitset is back in
// the free list, so this sees them all; it must not run during a round.
func (e *Engine) ReceiptBitsets() (made, dirtyWords int) {
	made = len(e.nextFree)
	for range made {
		next := <-e.nextFree
		for _, w := range next {
			if w != 0 {
				dirtyWords++
			}
		}
		e.nextFree <- next
	}
	return made, dirtyWords
}

// RoundLog is an Observer that keeps every round's metrics in round order:
// the trajectory a test reads, which Result does not retain.
type RoundLog []RoundMetrics

// OnRound implements Observer.
func (l *RoundLog) OnRound(rm RoundMetrics) { *l = append(*l, rm) }

// OnInformed implements Observer.
func (*RoundLog) OnInformed(int, int) {}

// RunRounds runs cfg, which carries no Observer of its own, with a
// RoundLog and returns the log beside the result.
func RunRounds(cfg Config) (Result, RoundLog, error) {
	var log RoundLog
	cfg.Observer = &log
	res, err := Run(cfg)
	return res, log, err
}

// FrontierRound returns the latest round the engine made a sparse-frontier
// round (markFrontier), 0 before the first: an Observer's OnRound(t) reads
// t back iff round t was one.
func (e *Engine) FrontierRound() int { return int(e.frontier) }

// frontierCount forwards every callback to the run's own Observer, if any,
// and counts the rounds its engine made sparse-frontier rounds.
type frontierCount struct {
	inner  Observer
	eng    *Engine
	rounds int
}

func (f *frontierCount) OnRound(rm RoundMetrics) {
	if f.eng.FrontierRound() == rm.Round {
		f.rounds++
	}
	if f.inner != nil {
		f.inner.OnRound(rm)
	}
}

func (f *frontierCount) OnInformed(v, t int) {
	if f.inner != nil {
		f.inner.OnInformed(v, t)
	}
}

// RunFrontier runs cfg and returns its result with the number of its
// sparse-frontier rounds. cfg's Observer, if any, still sees every
// OnRound and OnInformed.
func RunFrontier(cfg Config) (Result, int, error) {
	fc := &frontierCount{inner: cfg.Observer}
	cfg.Observer = fc
	e, err := NewEngine(cfg)
	if err != nil {
		return Result{}, 0, err
	}
	fc.eng = e
	return e.Run(), fc.rounds, nil
}
