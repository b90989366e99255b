// Package population implements the pairwise-interaction (population
// protocol) engine family: anonymous agents with a small state space,
// advanced either by uniform random ordered pairs (the classic
// population-protocol scheduler, PairProtocol) or by synchronous ring
// steps (RingProtocol, for Herman-style self-stabilizing rings).
//
// The engine is the second instance of the repository's deterministic
// sharded super-step contract (internal/sched; the first is the
// phone-call round engine in internal/phonecall). Interactions are
// batched into super-steps of Config.N pairs; each super-step
// partitions its interaction quota over sched.DefaultShards shards, each
// shard drawing its pairs and coin words from its own split PRNG stream
// concurrently, and the drawn interactions are then applied to the
// configuration sequentially in shard order by the coordinating
// goroutine. Pair draws are state-independent, so the parallel drawing
// phase cannot observe — and therefore cannot depend on — the order in
// which transitions are applied. The consequence is stronger than in the
// phone-call engine: the sequential driver (Workers 0 or 1, shard passes
// inline) and the sharded driver execute the *same* trace, bit-identical
// for every worker count at a fixed shard count.
//
// The ring driver keeps the same shape with a synchronous twist: each
// super-step is one simultaneous update of all n agents, double-buffered
// so shard passes write disjoint ranges of the next configuration, with
// coin words drawn from the shard's own stream only at positions where
// RingProtocol.NeedsCoin reports a coin flip.
//
// A run halts when the protocol's progress measure reaches 1 and stays
// there for DefaultSilenceWindow consecutive super-steps (Converged), when
// no agent state changes for DefaultSilenceWindow consecutive super-steps
// (a silent configuration, Silent), at MaxSteps, or when Config.Halt asks.
package population

import (
	"errors"
	"math"
	"math/bits"

	"regcast/internal/sched"
	"regcast/internal/xrand"
)

// State is one agent's state word. Protocols pack their fields into it;
// population-protocol state spaces are small by definition, and 32 bits
// keep the configuration slice compact and the double buffer cheap.
type State = uint32

// PairProtocol is an agent-state machine driven by the uniform
// random-ordered-pair scheduler: each interaction picks an ordered pair
// (initiator a, responder b) of distinct agents uniformly at random and
// replaces their states with Transition(a, b, coin).
type PairProtocol interface {
	// Name identifies the protocol in traces and reports.
	Name() string
	// Transition maps the (initiator, responder) states to their
	// successors. coin is a fresh uniform 64-bit word drawn for this
	// interaction; protocols needing randomness slice bits from it, and
	// deterministic protocols ignore it (the word is always drawn, so
	// stream consumption does not depend on the configuration).
	Transition(a, b State, coin uint64) (State, State)
	// Measure reports the protocol's progress measure on a
	// configuration — the number of leaders, tokens, or other witnesses.
	// The engine declares convergence when Measure reaches 1 and stays
	// there for DefaultSilenceWindow consecutive super-steps.
	Measure(cfg []State) int
}

// RingProtocol is an agent-state machine driven by the synchronous ring
// scheduler: each super-step simultaneously replaces every agent's state
// with Update(self, pred, coin), where pred is the state of the agent's
// ring predecessor in the current configuration.
type RingProtocol interface {
	// Name identifies the protocol in traces and reports.
	Name() string
	// NeedsCoin reports whether this agent flips a coin this step. Coin
	// words are consumed from the owning shard's stream only when it
	// returns true, in ascending agent order within the shard.
	NeedsCoin(self, pred State) bool
	// Update maps (self, predecessor) to the agent's next state. coin is
	// a fresh uniform word when NeedsCoin reported true, and zero
	// otherwise.
	Update(self, pred State, coin uint64) State
	// Measure is the progress measure, as for PairProtocol.
	Measure(cfg []State) int
}

// SuperStepStats is the per-super-step record streamed to Observers.
type SuperStepStats struct {
	Step         int // 1-based super-step index
	Interactions int // interactions applied this step (N)
	Changed      int // agent-state writes that changed a state this step
	Measure      int // protocol progress measure after this step
}

// Observer consumes per-super-step statistics online.
type Observer interface {
	OnSuperStep(SuperStepStats)
}

// Config describes one population-protocol run. Exactly one of Pair and
// Ring must be set; it selects the scheduler.
type Config struct {
	N    int          // number of agents
	Pair PairProtocol // uniform random ordered-pair scheduler
	Ring RingProtocol // synchronous ring scheduler

	// Init maps an agent index to its initial state; coin is a fresh
	// uniform word from the run's dedicated init stream. Nil starts every
	// agent in the zero state. Self-stabilizing protocols are exercised
	// from adversarial Inits.
	Init func(i, n int, coin uint64) State

	RNG *xrand.Rand // master stream for the run; nil seeds a default

	MaxSteps int // super-step budget; 0 selects a per-scheduler default

	Workers int // sched worker goroutines; 0 or 1 inline, WorkersAuto = GOMAXPROCS
	shards  int // shard count (fixes the trace); 0, what every program runs, is sched.DefaultShards

	// DisableFastPath compiles nothing: the run takes the uncompiled
	// arms — one interface call per interaction and the O(n) Measure
	// scan — through the same super-step. Every arm is bit-identical (the
	// fastpath tests pin the digests); the field survives only for
	// bench/'s reference probe (ROADMAP 1), and the facade never sets it.
	DisableFastPath bool

	Observer Observer    // optional per-super-step hook
	Halt     func() bool // optional cooperative cancellation, polled per step
}

// Result summarises one run.
type Result struct {
	Steps        int   // super-steps executed
	Interactions int64 // total interactions applied
	Measure      int   // final progress measure
	Converged    bool  // measure reached 1 and held for DefaultSilenceWindow steps
	ConvergedAt  int   // first step of the sustained measure-1 run (-1 if never)
	// ConvergedInteractions is the cumulative interaction count at
	// ConvergedAt — the natural convergence-time unit of the
	// population-protocol literature.
	ConvergedInteractions int64
	Silent                bool    // no state changed for DefaultSilenceWindow steps
	Final                 []State // final configuration (owned by the caller)
}

// DefaultSilenceWindow is the confirmation window: measure 1 (or zero
// changes) must hold for this many consecutive super-steps before the run
// halts.
const DefaultSilenceWindow = 3

// PairDraw is one pre-drawn interaction: the ordered pair and its coin
// word. Draws are state-independent, which is what lets the drawing
// phase run concurrently while transitions apply sequentially. The type
// is xrand's batched draw record: xrand.FillPairDraws fills it and every
// apply arm, BatchProtocol.ApplyPairs included, reads the same buffers.
// Its int32 agent indices are why a pair run rejects N > MaxInt32.
type PairDraw = xrand.PairDraw

// popShard owns one slice of each super-step's work and the shard's own
// PRNG stream. The ring driver updates the contiguous agent range
// [lo, hi); the pair driver draws and applies hi−lo interactions, so a
// super-step's quotas sum to N.
type popShard struct {
	stream  *xrand.Rand
	lo, hi  int
	pairs   []PairDraw
	changed int
}

type engine struct {
	cfg     Config
	n       int
	states  []State
	next    []State // ring double buffer
	shards  []popShard
	workers int

	interactions int64

	// The apply arm, chosen once by compile (fastpath.go): at most one of
	// table and batch is set for a pair run; neither selects applyShard.
	table       []uint64       // compiled pair transition table
	tshift      uint32         // state index shift: entry index is ((a<<tshift)|b)<<tcoin | coin bits
	tcoin       uint32         // coin bits folded into the table index
	counts      []int64        // occupancy vector the table arm keeps exact
	countsProto CountsProtocol // non-nil: measure folds counts instead of scanning
	batch       BatchProtocol  // devirtualised whole-block apply
	ringNeeds   []bool         // compiled RingProtocol.NeedsCoin table
	ringUpd     []State        // compiled RingProtocol.Update table
}

// Run executes one population-protocol run to convergence, silence, or
// the step budget.
func Run(cfg Config) (Result, error) {
	e, err := newEngine(cfg)
	if err != nil {
		return Result{}, err
	}
	return e.run(), nil
}

func newEngine(cfg Config) (*engine, error) {
	if (cfg.Pair == nil) == (cfg.Ring == nil) {
		return nil, errors.New("population: exactly one of Config.Pair and Config.Ring must be set")
	}
	minN := 1
	if cfg.Pair != nil {
		minN = 2 // an ordered pair needs two distinct agents
	}
	if cfg.N < minN {
		return nil, errors.New("population: Config.N too small for the selected scheduler")
	}
	if cfg.Pair != nil && cfg.N > math.MaxInt32 {
		// Checked before the configuration is allocated: PairDraw's agent
		// indices are int32 and would wrap negative.
		return nil, errors.New("population: Config.N exceeds the pair scheduler's int32 agent index")
	}
	if cfg.RNG == nil {
		cfg.RNG = xrand.New(0)
	}
	if cfg.shards == 0 {
		cfg.shards = sched.DefaultShards
	}
	if cfg.shards < 1 {
		return nil, errors.New("population: the shard count must be positive")
	}
	if err := sched.CheckWorkers("population: Config.Workers", cfg.Workers); err != nil {
		return nil, err
	}
	if cfg.MaxSteps < 0 {
		return nil, errors.New("population: Config.MaxSteps must not be negative")
	}
	if cfg.MaxSteps == 0 {
		if cfg.Pair != nil {
			// ~256·log2(n) super-steps of n interactions: a generous
			// Θ(n log n)-interaction budget.
			cfg.MaxSteps = 256 * bits.Len(uint(cfg.N))
		} else {
			// Herman-style rings converge in O(n²) expected steps
			// (conjectured 4n²/27); 2n² leaves ample slack.
			cfg.MaxSteps = 2 * cfg.N * cfg.N
		}
	}

	e := &engine{cfg: cfg, n: cfg.N}
	e.states = make([]State, e.n)
	if cfg.Ring != nil {
		e.next = make([]State, e.n)
	}

	// Seeding order is part of the trace contract: the init stream is the
	// first Split of the master, then shard i's stream is the (i+1)-th.
	// Neither depends on Workers, so neither does the trace.
	initStream := cfg.RNG.Split()
	if cfg.Init != nil {
		for i := range e.states {
			e.states[i] = cfg.Init(i, e.n, initStream.Uint64())
		}
	}
	e.shards = make([]popShard, cfg.shards)
	for i := range e.shards {
		sh := &e.shards[i]
		sh.stream = cfg.RNG.Split()
		sh.lo, sh.hi = sched.Bounds(i, e.n, cfg.shards)
		if cfg.Pair != nil {
			// Preallocate the interaction quota once, here, so no super-step
			// — first included — grows the buffer via append: the engine's
			// steady state is allocation-free (the fastpath tests guard it).
			sh.pairs = make([]PairDraw, 0, sh.hi-sh.lo)
		}
	}
	e.workers = sched.Resolve(cfg.Workers, cfg.shards)
	e.compile()
	return e, nil
}

func (e *engine) measure() int {
	if e.countsProto != nil {
		// The table arm keeps the occupancy vector exact under Init and
		// every applied transition, so the O(states) fold replaces the
		// O(n) scan with the same value (the cross-check test pins this).
		return e.countsProto.MeasureCounts(e.counts)
	}
	if e.cfg.Pair != nil {
		return e.cfg.Pair.Measure(e.states)
	}
	return e.cfg.Ring.Measure(e.states)
}

func (e *engine) run() Result {
	res := Result{ConvergedAt: -1}
	const window = DefaultSilenceWindow

	// runLen counts consecutive super-steps (the initial configuration
	// counts as step 0) at measure 1; quiet counts consecutive steps with
	// no state change.
	runLen, quiet := 0, 0
	runStartStep := 0
	var runStartInteractions int64
	if e.measure() == 1 {
		runLen = 1
	}

	for step := 1; step <= e.cfg.MaxSteps; step++ {
		var inter, changed int
		if e.cfg.Pair != nil {
			inter, changed = e.pairStep()
		} else {
			inter, changed = e.ringStep()
		}
		e.interactions += int64(inter)
		res.Steps = step

		m := e.measure()
		if obs := e.cfg.Observer; obs != nil {
			obs.OnSuperStep(SuperStepStats{Step: step, Interactions: inter, Changed: changed, Measure: m})
		}

		if m == 1 {
			if runLen == 0 {
				runStartStep = step
				runStartInteractions = e.interactions
			}
			runLen++
		} else {
			runLen = 0
		}
		if changed == 0 {
			quiet++
		} else {
			quiet = 0
		}

		if runLen >= window {
			res.Converged = true
			break
		}
		if quiet >= window {
			res.Silent = true
			// A silent configuration at measure 1 is converged forever,
			// even if the measure-1 run is younger than the window.
			res.Converged = runLen > 0
			break
		}
		if e.cfg.Halt != nil && e.cfg.Halt() {
			break
		}
	}

	if res.Converged {
		res.ConvergedAt = runStartStep
		res.ConvergedInteractions = runStartInteractions
	}
	res.Interactions = e.interactions
	res.Measure = e.measure()
	res.Final = e.states
	return res
}

// pairStep runs one super-step of the pair driver: every shard draws its
// interaction quota from its own stream through the block sampler, and
// the coordinator applies the drawn transitions sequentially in shard
// order. With workers the draw phase fans out first. Inline, draw and
// apply alternate in fuseBlock blocks: one xoshiro stream is a serial
// dependency chain (~12 cycles per pair), so a separate draw phase is
// latency-bound while the apply phase is throughput-bound; alternating
// small blocks lets the out-of-order core overlap the next block's
// generator chain with the previous block's apply work, and the block
// stays in L1 between fill and apply. Draws are state-independent and
// both shapes consume the streams and apply the pairs in the same order,
// so the trace is the same at every worker count.
func (e *engine) pairStep() (interactions, changed int) {
	if e.workers > 1 {
		sched.Pool(e.workers, len(e.shards), func(i int) { e.drawPairs(&e.shards[i]) })
		for i := range e.shards {
			pairs := e.shards[i].pairs
			interactions += len(pairs)
			changed += e.apply(pairs)
		}
		return interactions, changed
	}
	for i := range e.shards {
		sh := &e.shards[i]
		q := sh.hi - sh.lo
		sh.pairs = sh.pairs[:q]
		interactions += q
		for off := 0; off < q; off += fuseBlock {
			blk := sh.pairs[off:min(off+fuseBlock, q)]
			sh.stream.FillPairDraws(blk, e.n)
			changed += e.apply(blk)
		}
	}
	return interactions, changed
}

// drawPairs fills a shard's pre-drawn interaction buffer: ordered pairs
// of distinct agents, uniform over the n·(n−1) possibilities, plus one
// coin word each — all from the shard's own stream.
func (e *engine) drawPairs(sh *popShard) {
	sh.pairs = sh.pairs[:sh.hi-sh.lo]
	sh.stream.FillPairDraws(sh.pairs, e.n)
}

// ringStep runs one synchronous ring super-step: each shard computes the
// next state of its own agent range into the double buffer (disjoint
// writes, so passes may run concurrently), drawing coin words from its
// stream only where the protocol flips one; then the buffers swap.
func (e *engine) ringStep() (interactions, changed int) {
	if e.workers <= 1 {
		for i := range e.shards {
			e.ringShard(&e.shards[i])
		}
	} else {
		sched.Pool(e.workers, len(e.shards), func(i int) { e.ringShard(&e.shards[i]) })
	}
	for i := range e.shards {
		changed += e.shards[i].changed
	}
	e.states, e.next = e.next, e.states
	return e.n, changed
}
