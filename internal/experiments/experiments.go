// Package experiments defines one reproducible experiment per headline
// statement of the paper — every theorem, phase-level lemma, and claimed
// comparison has a registered entry that regenerates its result table (the
// paper is theory-only, so these tables stand in for the tables/figures an
// empirical evaluation section would carry; the DESIGN.md experiment index
// maps each entry to the statement it validates).
//
// All experiments run in two profiles: Quick (used by `go test -bench` and
// CI: smaller sweeps, fewer repetitions) and Full (used by
// cmd/experiments to regenerate EXPERIMENTS.md). Since the batch
// redesign, every replication ensemble in the harness routes through the
// facade's batch layer — regcast.Batch for broadcast ensembles,
// regcast.Replicate for non-broadcast ones (graph structure, the
// median-counter engine) — so Options.ReplicationWorkers parallelises a
// full paper regeneration across whole runs while keeping every table a
// pure function of Options.Seed.
package experiments

import (
	"context"
	"fmt"
	"sort"

	"regcast"
	"regcast/internal/graph"
	"regcast/internal/table"
	"regcast/internal/xrand"
)

// Options selects the experiment profile.
type Options struct {
	// Seed drives all randomness of the experiment.
	Seed uint64
	// Quick shrinks sweeps and repetition counts for benches and CI.
	Quick bool
	// Workers has the facade's -workers semantics — 0 runs each
	// broadcast's shard passes inline, WorkersAuto (-1) on a pool of
	// GOMAXPROCS workers, n >= 1 on a pool of n. It never changes any
	// table — only the wall-clock time.
	Workers int
	// ReplicationWorkers sets the batch layer's pool width over whole
	// replications (regcast.Batch semantics: 0/1 serial, WorkersAuto =
	// GOMAXPROCS, n > 1 fixed). Replication-level parallelism composes
	// with Workers' per-run sharding and never changes any table — the
	// batch engine aggregates in replication order.
	ReplicationWorkers int
}

// runner returns the per-run engine the profile selects.
func (o Options) runner() regcast.Runner {
	return regcast.NewRunner(regcast.WithWorkers(o.Workers))
}

// runRounds runs a broadcast scenario on o's runner with a run-local
// observer that keeps every round's RoundStats, in round order.
func (o Options) runRounds(topo regcast.Topology, proto regcast.Protocol, opts ...regcast.ScenarioOption) (regcast.Result, []regcast.RoundStats, error) {
	var rounds []regcast.RoundStats
	keep := regcast.ObserverFuncs{Round: func(rs regcast.RoundStats) { rounds = append(rounds, rs) }}
	sc, err := regcast.NewScenario(topo, proto, append(opts, regcast.WithObserver(keep))...)
	if err != nil {
		return regcast.Result{}, nil, err
	}
	res, err := o.runner().Run(context.Background(), sc)
	return res, rounds, err
}

// Experiment is one registered, reproducible measurement.
type Experiment struct {
	// ID is the experiment identifier used in DESIGN.md and EXPERIMENTS.md
	// (E1, E2, ...).
	ID string
	// Title is a one-line description.
	Title string
	// PaperClaim states what the paper predicts, for the report header.
	PaperClaim string
	// Population marks the experiments that run population-protocol
	// scenarios (E21+) rather than the paper's phone-call rounds (E1–E20).
	// cmd/experiments filters its default selection by it.
	Population bool
	// Run executes the experiment and returns its result tables.
	Run func(o Options) ([]*table.Table, error)
}

// registry holds all experiments keyed by ID.
var registry = map[string]Experiment{}

func register(e Experiment) {
	if _, dup := registry[e.ID]; dup {
		panic(fmt.Sprintf("experiments: duplicate id %s", e.ID))
	}
	registry[e.ID] = e
}

// All returns every registered experiment ordered by numeric ID.
func All() []Experiment {
	out := make([]Experiment, 0, len(registry))
	for _, e := range registry {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool {
		var a, b int
		fmt.Sscanf(out[i].ID, "E%d", &a)
		fmt.Sscanf(out[j].ID, "E%d", &b)
		return a < b
	})
	return out
}

// ByID looks an experiment up.
func ByID(id string) (Experiment, bool) {
	e, ok := registry[id]
	return e, ok
}

// runStats aggregates repeated broadcast runs.
type runStats struct {
	Reps          int
	MeanRounds    float64 // mean FirstAllInformed over completing runs
	MeanTx        float64 // mean transmissions over all runs
	MeanTxPerNode float64
	CompletedFrac float64 // fraction of runs with AllInformed
	InformedFrac  float64 // mean informed fraction over all runs
}

// fromBatch converts a batch aggregate into the harness's summary shape.
func fromBatch(res regcast.BatchResult) runStats {
	return runStats{
		Reps:          res.Replications,
		MeanRounds:    res.Rounds.Mean,
		MeanTx:        res.Transmissions.Mean,
		MeanTxPerNode: res.TxPerNode.Mean,
		CompletedFrac: res.CompletedFrac(),
		InformedFrac:  res.InformedFrac.Mean,
	}
}

// measure runs proto on g for reps seed-derived replications through the
// facade's batch engine, with a random source per replication and any
// extra scenario options applied (fault models, stop-early accounting,
// dial strategies). Options.Workers selects the per-run engine and
// Options.ReplicationWorkers the pool width over whole runs; neither
// changes the returned statistics.
func measure(o Options, g *graph.Graph, proto regcast.Protocol, seed uint64, reps int, opts ...regcast.ScenarioOption) (runStats, error) {
	scOpts := append([]regcast.ScenarioOption{regcast.WithSeed(seed)}, opts...)
	sc, err := regcast.NewScenario(regcast.Static(g), proto, scOpts...)
	if err != nil {
		return runStats{}, err
	}
	res, err := regcast.Batch{
		Scenario:           sc,
		Replications:       reps,
		ReplicationWorkers: o.ReplicationWorkers,
		Runner:             o.runner(),
		RandomizeSource:    true,
	}.Run(context.Background())
	if err != nil {
		return runStats{}, err
	}
	return fromBatch(res), nil
}

// sizes returns the n-sweep for the profile.
func sizes(o Options) []int {
	if o.Quick {
		return []int{1 << 9, 1 << 10, 1 << 11, 1 << 12}
	}
	return []int{1 << 10, 1 << 11, 1 << 12, 1 << 13, 1 << 14, 1 << 15, 1 << 16}
}

// repsFor returns the repetition count for the profile.
func repsFor(o Options) int {
	if o.Quick {
		return 3
	}
	return 5
}

// regular generates the experiment's standard topology.
func regular(n, d int, rng *xrand.Rand) (*graph.Graph, error) {
	g, err := graph.RandomRegular(n, d, rng)
	if err != nil {
		return nil, fmt.Errorf("experiments: G(%d,%d): %w", n, d, err)
	}
	return g, nil
}

func f1(x float64) string  { return fmt.Sprintf("%.1f", x) }
func f2(x float64) string  { return fmt.Sprintf("%.2f", x) }
func f3(x float64) string  { return fmt.Sprintf("%.3f", x) }
func pct(x float64) string { return fmt.Sprintf("%.0f%%", 100*x) }
