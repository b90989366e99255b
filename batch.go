package regcast

import (
	"context"
	"fmt"
	"sync/atomic"

	"regcast/internal/sched"
	"regcast/internal/stats"
	"regcast/internal/xrand"
)

// Batch runs R seed-derived replications of one scenario (a broadcast
// Scenario or a PopulationScenario) on a worker pool and aggregates their
// results online — the statistical layer of the facade. Replication-level
// parallelism composes with the sharded engine's per-run parallelism:
// Batch decides how many whole runs are in flight (ReplicationWorkers),
// the Runner decides how many workers each run uses internally.
//
// Determinism contract: every replication draws from a PRNG stream that is
// precomputed in replication order from one master seed (xrand.SplitN
// discipline), and results are aggregated in replication order once all
// runs finish. Aggregate results — and their JSON encoding — are
// therefore bit-identical for every ReplicationWorkers value. Only
// wall-clock time changes.
type Batch struct {
	// Scenario is the replicated run, of either kind. Each replication
	// executes a copy of it whose randomness is replaced by the
	// replication's derived stream. Required.
	//
	// A PopulationScenario replicates through the same plan, pool and
	// fold: the aggregates read its runs through Runner.Run's fixed mapping
	// (Completed = converged runs, Rounds = convergence super-step over
	// converged runs, Transmissions/TxPerNode = interactions to
	// convergence, or the budget-censored total when a run did not
	// converge, ChannelsDialed = total interactions, InformedFrac = the
	// convergence rate). It must use Seed, not RNG, and carry no Observer
	// (per-run state shared across concurrent replications);
	// RandomizeSource is broadcast-only.
	//
	// A spec scenario (NewScenarioSpec) builds a fresh topology per
	// replication from the replication's stream, so dynamic topologies —
	// OverlaySpec churn, per-run random graphs — replicate without
	// sharing state. An instance scenario (NewScenario) shares its one
	// topology across replications, which is why a dynamic (Stepper)
	// *instance* is rejected: churn would mutate the shared topology,
	// leaking state between runs (and racing under a concurrent pool) —
	// use the equivalent spec instead. Scenarios built with WithRNG or
	// WithObserver are rejected either way: a batch re-seeds every
	// replication, and observers are per-run state (run such ensembles
	// through Replicate).
	Scenario AnyScenario

	// Replications is R, the number of runs. Required, >= 1.
	Replications int

	// ReplicationWorkers sets the worker-pool width over whole runs:
	// 0 or 1 run the replications serially, WorkersAuto (-1) uses
	// GOMAXPROCS workers, n > 1 uses n workers. Aggregates are
	// bit-identical for every value.
	ReplicationWorkers int

	// Runner executes each replication; its zero value runs the shard
	// passes inline. Per-run engine parallelism (WithWorkers) stacks with
	// ReplicationWorkers — on a many-core box, ReplicationWorkers
	// parallelises the ensemble and the worker pool parallelises each
	// run.
	Runner Runner

	// Seed overrides the master seed the replication streams derive from.
	// When 0, a batch uses the scenario's own seed (so a Batch over
	// NewScenario(..., WithSeed(s)) is fully determined by s).
	Seed uint64

	// RandomizeSource re-draws the broadcast source per replication from
	// the replication's stream (uniform over the topology's alive nodes)
	// instead of reusing the scenario's fixed source — the standard setup
	// for statistical ensembles, where a fixed source would correlate
	// every run.
	RandomizeSource bool

	// KeepResults retains every replication's full Result (in replication
	// order, Result.Population included) in BatchResult.Results. Leave it
	// false for large ensembles: aggregation is online and needs no
	// retention.
	KeepResults bool
}

// Aggregate summarises one metric over a batch's replications: moments
// from an online accumulator and quantiles from a mergeable sketch, both
// fed in replication order (see Batch's determinism contract).
type Aggregate struct {
	// N is the number of replications that contributed to this metric.
	N int `json:"n"`
	// Mean is the arithmetic mean.
	Mean float64 `json:"mean"`
	// Stddev is the sample standard deviation (n-1 denominator).
	Stddev float64 `json:"stddev"`
	// Min and Max are the extreme observations.
	Min float64 `json:"min"`
	Max float64 `json:"max"`
	// P10, P50 and P90 are sketch-estimated quantiles (exact while the
	// number of distinct values fits the sketch).
	P10 float64 `json:"p10"`
	P50 float64 `json:"p50"`
	P90 float64 `json:"p90"`
}

// BatchResult aggregates a completed batch. Per-round traces are never
// retained across replications — every metric here is a per-run scalar
// folded into online accumulators.
type BatchResult struct {
	// Replications is the number of runs executed.
	Replications int `json:"replications"`
	// Completed is the number of runs that informed every alive node.
	Completed int `json:"completed"`
	// Rounds aggregates FirstAllInformed over the completed runs only
	// (incomplete runs have no completion round).
	Rounds Aggregate `json:"rounds"`
	// Transmissions aggregates total transmissions over all runs.
	Transmissions Aggregate `json:"transmissions"`
	// TxPerNode aggregates transmissions divided by the run's alive-node
	// count (the id-space size when no node is alive) — per-peer cost,
	// comparable across topologies with and without dead headroom slots.
	TxPerNode Aggregate `json:"tx_per_node"`
	// ChannelsDialed aggregates the model-mandated channel dials.
	ChannelsDialed Aggregate `json:"channels_dialed"`
	// InformedFrac aggregates the informed fraction of alive nodes.
	InformedFrac Aggregate `json:"informed_frac"`
	// Results holds every replication's Result, in replication order, when
	// Batch.KeepResults is set (omitted from JSON either way).
	Results []Result `json:"-"`
}

// CompletedFrac returns the fraction of replications that informed every
// alive node.
func (r BatchResult) CompletedFrac() float64 {
	if r.Replications == 0 {
		return 0
	}
	return float64(r.Completed) / float64(r.Replications)
}

// metricAgg pairs the online accumulator with the quantile sketch for one
// metric.
type metricAgg struct {
	acc  stats.Accumulator
	hist *stats.StreamHist
}

// batchSketchBins is the sketch capacity per metric: exact quantiles up to
// 64 distinct per-run values, bounded memory beyond.
const batchSketchBins = 64

func newMetricAgg() *metricAgg {
	h, err := stats.NewStreamHist(batchSketchBins)
	if err != nil {
		panic(err) // constant capacity is valid by construction
	}
	return &metricAgg{hist: h}
}

func (m *metricAgg) add(x float64) {
	m.acc.Add(x)
	m.hist.Add(x)
}

func (m *metricAgg) aggregate() Aggregate {
	if m.acc.N() == 0 {
		return Aggregate{}
	}
	return Aggregate{
		N:      m.acc.N(),
		Mean:   m.acc.Mean(),
		Stddev: m.acc.Stddev(),
		Min:    m.acc.Min(),
		Max:    m.acc.Max(),
		P10:    m.hist.Quantile(0.10),
		P50:    m.hist.Quantile(0.50),
		P90:    m.hist.Quantile(0.90),
	}
}

// repPlan is one replication's precomputed randomness: the derived stream
// and (for RandomizeSource scenario batches) the source drawn from the
// master before the split, so the master's consumption order is a pure
// function of the batch parameters.
type repPlan struct {
	rng    *xrand.Rand
	source int // -1 when the scenario's own source applies
}

// seed resolves the master seed the replication streams derive from.
func (b Batch) seed(k scenarioKind) uint64 {
	switch {
	case b.Seed != 0:
		return b.Seed
	case k.isPopulation:
		return k.population.Seed
	default:
		return k.broadcast.seed
	}
}

// validate resolves the batch's scenario kind and rejects configurations
// no pool should run.
func (b Batch) validate() (scenarioKind, error) {
	if b.Replications <= 0 {
		return scenarioKind{}, fmt.Errorf("regcast: batch needs Replications >= 1, got %d", b.Replications)
	}
	if err := sched.CheckWorkers("regcast: batch ReplicationWorkers", b.ReplicationWorkers); err != nil {
		return scenarioKind{}, err
	}
	if b.Scenario == nil {
		return scenarioKind{}, fmt.Errorf("regcast: batch needs a Scenario")
	}
	k, err := resolveScenario(b.Scenario)
	if err != nil {
		return scenarioKind{}, err
	}
	if k.isPopulation {
		if b.RandomizeSource {
			return scenarioKind{}, fmt.Errorf("regcast: batch RandomizeSource applies to broadcast scenarios only (a population scenario has no source)")
		}
		if k.population.Observer != nil {
			return scenarioKind{}, fmt.Errorf("regcast: batch scenarios cannot carry observers (per-run state shared across concurrent replications)")
		}
		if k.population.RNG != nil {
			return scenarioKind{}, fmt.Errorf("regcast: batch scenarios must use Seed, not RNG: replications re-derive their streams from the master seed")
		}
		return k, nil
	}
	sc := &k.broadcast
	if err := sc.validate(); err != nil {
		return scenarioKind{}, err
	}
	if sc.cfg.RNG != nil {
		return scenarioKind{}, fmt.Errorf("regcast: batch scenarios must use WithSeed, not WithRNG: replications re-derive their streams from the master seed")
	}
	if sc.cfg.Observer != nil {
		return scenarioKind{}, fmt.Errorf("regcast: batch scenarios cannot carry observers (per-run state shared across concurrent replications); run per-replication observers through Replicate")
	}
	if sc.cfg.Topology != nil && sc.dynamic() {
		return scenarioKind{}, fmt.Errorf("regcast: batch scenarios cannot share a dynamic (Stepper) topology instance across replications (churn state would leak between runs and race under a concurrent pool); describe the topology with NewScenarioSpec — e.g. OverlaySpec — so each replication builds its own")
	}
	return k, nil
}

// drawAliveSource draws a source uniformly over the topology's alive
// nodes: rejection sampling from the stream (one draw on fully-alive
// topologies, so the classic one-IntN-per-replication derivation is
// preserved bit-for-bit), falling back after NumNodes misses to a
// deterministic scan from the last draw, which also bounds the
// pathological nobody-alive case.
func drawAliveSource(rng *xrand.Rand, topo Topology) (int, error) {
	n := topo.NumNodes()
	v := 0
	for i := 0; i < n; i++ {
		v = rng.IntN(n)
		if topo.Alive(v) {
			return v, nil
		}
	}
	for i := 0; i < n; i++ {
		if u := (v + i) % n; topo.Alive(u) {
			return u, nil
		}
	}
	return 0, fmt.Errorf("regcast: batch cannot randomize the source: topology has no alive nodes")
}

// plan precomputes every replication's randomness in replication order.
func (b Batch) plan(k scenarioKind) ([]repPlan, error) {
	master := xrand.New(b.seed(k))
	plans := make([]repPlan, b.Replications)
	for r := range plans {
		plans[r].source = -1
		// Instance scenarios draw the source from the master before the
		// split (the classic derivation, preserved bit-for-bit); spec
		// scenarios have no topology yet — their source is drawn from the
		// replication stream after the per-replication build (runRep).
		if b.RandomizeSource && k.broadcast.cfg.Topology != nil {
			src, err := drawAliveSource(master, k.broadcast.cfg.Topology)
			if err != nil {
				return nil, err
			}
			plans[r].source = src
		}
		plans[r].rng = master.Split()
	}
	return plans, nil
}

// runRep executes one replication.
func (b Batch) runRep(ctx context.Context, rep int, p repPlan, k scenarioKind) (Result, error) {
	var err error
	if k.isPopulation {
		k.population.RNG = p.rng
	} else if k.broadcast, err = b.buildRep(rep, p, k.broadcast); err != nil {
		return Result{}, fmt.Errorf("regcast: batch replication %d: %w", rep, err)
	}
	res, err := b.Runner.run(ctx, k)
	if err != nil {
		return Result{}, fmt.Errorf("regcast: batch replication %d: %w", rep, err)
	}
	return res, nil
}

// buildRep assembles one replication's broadcast scenario: the spec
// scenario materialised on the replication stream, or the shared instance
// re-seeded.
func (b Batch) buildRep(rep int, p repPlan, sc Scenario) (Scenario, error) {
	if sc.cfg.Topology == nil {
		// Spec scenario: build this replication's topology from the
		// replication stream (materialize carries the stream forward for
		// the run itself).
		var err error
		if sc, err = sc.materialize(rep, p.rng); err != nil {
			return Scenario{}, err
		}
	} else {
		sc.cfg.RNG = p.rng
		if p.source >= 0 {
			sc.cfg.Source = p.source
		}
	}
	// For spec scenarios the randomized source is drawn from the
	// replication stream after the build, over the topology that actually
	// exists this replication; instance scenarios received their
	// master-drawn source through the plan.
	if b.RandomizeSource && p.source < 0 {
		src, err := drawAliveSource(p.rng, sc.cfg.Topology)
		if err != nil {
			return Scenario{}, err
		}
		sc.cfg.Source = src
	}
	return sc, nil
}

// repOutcome is the fixed-size extract of one replication a batch
// aggregates — the reason per-round traces and per-node arrays never need
// to be retained across the ensemble.
type repOutcome struct {
	transmissions int64
	dials         int64
	informed      int
	alive         int
	nodes         int // len(InformedAt): the topology's node count
	allInformed   bool
	firstAll      int
}

// Run executes the batch. Cancelling ctx aborts outstanding replications
// and returns ctx.Err(). On success, the returned aggregates are
// bit-identical for every ReplicationWorkers value.
func (b Batch) Run(ctx context.Context) (BatchResult, error) {
	k, err := b.validate()
	if err != nil {
		return BatchResult{}, err
	}
	plans, err := b.plan(k)
	if err != nil {
		return BatchResult{}, err
	}
	outcomes := make([]repOutcome, b.Replications)
	var kept []Result
	if b.KeepResults {
		kept = make([]Result, b.Replications)
	}
	err = runPool(ctx, b.Replications, b.ReplicationWorkers, func(rep int) error {
		res, err := b.runRep(ctx, rep, plans[rep], k)
		if err != nil {
			return err
		}
		outcomes[rep] = repOutcome{
			transmissions: res.Transmissions,
			dials:         res.ChannelsDialed,
			informed:      res.Informed,
			alive:         res.AliveNodes,
			nodes:         len(res.InformedAt),
			allInformed:   res.AllInformed,
			firstAll:      res.FirstAllInformed,
		}
		if b.KeepResults {
			kept[rep] = res
		}
		return nil
	})
	if err != nil {
		return BatchResult{}, err
	}

	// Aggregate strictly in replication order: online accumulators are
	// order-sensitive in floating point, and this fixed order is what
	// makes the aggregates independent of the pool width.
	br := BatchResult{Replications: b.Replications}
	rounds, tx, txPerNode, dials, informed := newMetricAgg(), newMetricAgg(), newMetricAgg(), newMetricAgg(), newMetricAgg()
	for rep := range outcomes {
		o := outcomes[rep]
		tx.add(float64(o.transmissions))
		dials.add(float64(o.dials))
		if o.alive > 0 {
			informed.add(float64(o.informed) / float64(o.alive))
		}
		// Per-node cost divides by the alive population, not the id-space
		// size: overlay topologies carry dead headroom slots in
		// len(InformedAt), which would understate the per-peer cost (on
		// fully-alive topologies the two denominators coincide).
		if o.alive > 0 {
			txPerNode.add(float64(o.transmissions) / float64(o.alive))
		} else if o.nodes > 0 {
			txPerNode.add(float64(o.transmissions) / float64(o.nodes))
		}
		if o.allInformed {
			br.Completed++
			rounds.add(float64(o.firstAll))
		}
	}
	br.Rounds = rounds.aggregate()
	br.Transmissions = tx.aggregate()
	br.TxPerNode = txPerNode.aggregate()
	br.ChannelsDialed = dials.aggregate()
	br.InformedFrac = informed.aggregate()
	br.Results = kept
	return br, nil
}

// Replicate runs fn for reps replications on the batch layer's worker
// pool, handing each call an independent PRNG stream precomputed in
// replication order from seed (the same discipline Batch uses). It is the
// primitive for replication ensembles that are not a single broadcast
// Scenario — per-run graph generation, protocol engines outside the
// Runner, custom per-replication analyses. workers follows
// ReplicationWorkers semantics (0/1 serial, WorkersAuto = GOMAXPROCS,
// n > 1 = n workers); fn is called from pool workers and must be safe for
// concurrent calls with distinct rep values. Determinism is fn's side of
// the contract: derive all randomness from rng and write results into
// per-rep slots, then reduce in replication order after Replicate returns.
func Replicate(ctx context.Context, seed uint64, reps, workers int, fn func(rep int, rng *Rand) error) error {
	if reps < 0 {
		return fmt.Errorf("regcast: Replicate reps %d < 0", reps)
	}
	if err := sched.CheckWorkers("regcast: Replicate workers", workers); err != nil {
		return err
	}
	rngs := xrand.New(seed).SplitN(reps)
	return runPool(ctx, reps, workers, func(rep int) error {
		return fn(rep, rngs[rep])
	})
}

// runPool executes fn(0..reps-1): inline for at most one worker, else on
// sched.Pool. The error returned is deterministic: the one from the
// lowest-indexed failing replication (the pool hands out indices in
// ascending order and skips only those above the lowest failure seen, so
// no replication below it is skipped). Context cancellation surfaces as
// ctx.Err().
func runPool(ctx context.Context, reps, workers int, fn func(rep int) error) error {
	w := sched.Resolve(workers, reps)
	if w <= 1 {
		for rep := 0; rep < reps; rep++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			if err := fn(rep); err != nil {
				return err
			}
		}
		return ctx.Err()
	}
	errs := make([]error, reps)
	var lowest atomic.Int64 // the lowest failing replication so far
	lowest.Store(int64(reps))
	sched.Pool(w, reps, func(rep int) {
		if int64(rep) > lowest.Load() || ctx.Err() != nil {
			return
		}
		if errs[rep] = fn(rep); errs[rep] == nil {
			return
		}
		for cur := lowest.Load(); int64(rep) < cur; cur = lowest.Load() {
			if lowest.CompareAndSwap(cur, int64(rep)) {
				break
			}
		}
	})
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return ctx.Err()
}
