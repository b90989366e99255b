// Command regcast-bench runs a named sweep grid through the batch
// replication engine and writes the machine-readable regcast.Report.
// Timings are judged by bench/run.sh, not here; what this tool's output
// is held to is byte-determinism — the golden test next to it requires the
// ci and populations grids to equal testdata/*.json exactly.
//
// Usage:
//
//	regcast-bench -grid ci                          # the CI smoke grid, JSON to stdout
//	regcast-bench -grid scaling -o BENCH.json       # the E1-shaped n-sweep
//	regcast-bench -grid faults -format csv          # flat CSV for plotting
//	regcast-bench -grid protocols -rep-workers -1   # replications on a GOMAXPROCS pool
//	regcast-bench -grid degrees -timing             # include per-cell wall-clock
//	regcast-bench -grid topologies                  # declarative topology-family axis
//	regcast-bench -grid topologies-implicit -mem    # implicit vs dense pairs with B/op
//	regcast-bench -grid ci -topology hypercube:dim=14
//	                                                # override the grid's default topology
//	regcast-bench -grid churn                       # overlay join/leave-rate axis
//	regcast-bench -grid populations                 # population protocols, same schema
//	regcast-bench -grid ci -o cmd/regcast-bench/testdata/ci.json
//	                                                # regenerate a golden after a documented reseed
//
// Determinism: for a fixed -seed, grid and flag set (without -timing and
// -mem), the output bytes are identical across runs and across every
// -rep-workers and -workers value — those only change
// wall-clock time. -timing and -mem add machine-dependent per-cell fields
// and are not for byte comparison.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"regcast"
	"regcast/internal/baseline"
	"regcast/internal/core"
)

// protoFactory builds a protocol for an n-node d-regular network; the
// protocol axis of every grid carries these as its values.
type protoFactory func(n, d int) (regcast.Protocol, error)

var protocols = map[string]protoFactory{
	"four-choice": func(n, d int) (regcast.Protocol, error) { return regcast.NewFourChoice(n, d) },
	"push":        func(n, d int) (regcast.Protocol, error) { return baseline.NewPush(n, 1) },
	"pull":        func(n, d int) (regcast.Protocol, error) { return baseline.NewPull(n, 1) },
	"push-pull":   func(n, d int) (regcast.Protocol, error) { return baseline.NewPushPull(n, 1) },
	"algorithm1":  func(n, d int) (regcast.Protocol, error) { return core.NewAlgorithm1(n) },
}

// protoAxis builds the protocol axis from registered factory names.
func protoAxis(names ...string) regcast.Axis {
	ax := regcast.Axis{Name: "protocol"}
	for _, name := range names {
		ax.Values = append(ax.Values, regcast.Val(name, protocols[name]))
	}
	return ax
}

// buildCell is the shared Build function of every grid: it reads the
// point's n / degree / protocol / fault / topology / churn axes (absent
// axes fall back to the given defaults) and returns a source-randomised
// batch over the scenario. A "workload" axis makes the cell a population
// batch instead (buildPopulationCell).
//
// Without a topology-shaped axis the cell generates one random regular
// graph from the point seed and replicates on it — the classic derivation,
// preserved byte-for-byte for the pre-existing grids. A "topology" axis
// carries a declarative regcast.TopologySpec instead, and a "churn" axis
// a per-round join/leave rate realised as an OverlaySpec; either way the
// batch builds a fresh topology per replication from the spec.
func buildCell(p regcast.Point, defaults cellDefaults) (regcast.Batch, error) {
	n, d := defaults.n, defaults.d
	mk := defaults.proto
	var failure, loss float64
	var spec regcast.TopologySpec
	churn := -1.0
	for _, prm := range p.Params() {
		switch prm.Axis {
		case "workload":
			return buildPopulationCell(p)
		case "n":
			n = p.Value("n").(int)
		case "d":
			d = p.Value("d").(int)
		case "protocol":
			mk = p.Value("protocol").(protoFactory)
		case "failure":
			failure = p.Value("failure").(float64)
		case "loss":
			loss = p.Value("loss").(float64)
		case "topology":
			spec = p.Value("topology").(regcast.TopologySpec)
		case "churn":
			churn = p.Value("churn").(float64)
		}
	}
	if spec == nil && churn < 0 {
		// The shared -topology flag overrides the grid's default topology
		// for cells that don't sweep one themselves; its node count drives
		// the protocol horizons.
		spec = defaults.spec
		if spec != nil {
			if nn := regcast.SpecNodeCount(spec); nn > 0 {
				n = nn
			}
		}
	}
	rng := regcast.NewRand(p.Seed)
	proto, err := mk(n, d)
	if err != nil {
		return regcast.Batch{}, err
	}
	if churn >= 0 {
		spec = regcast.OverlaySpec{N: n, D: d, JoinProb: churn, LeaveProb: churn, MixSteps: 5}
	}
	opts := []regcast.ScenarioOption{
		regcast.WithChannelFailure(failure),
		regcast.WithMessageLoss(loss),
	}
	var sc regcast.Scenario
	if spec != nil {
		sc, err = regcast.NewScenarioSpec(spec, proto,
			append(opts, regcast.WithSeed(rng.Uint64()))...)
	} else {
		var g *regcast.Graph
		g, err = regcast.NewRegularGraph(n, d, rng.Split())
		if err != nil {
			return regcast.Batch{}, err
		}
		sc, err = regcast.NewScenario(regcast.Static(g), proto,
			append(opts, regcast.WithSeed(rng.Uint64()))...)
	}
	if err != nil {
		return regcast.Batch{}, err
	}
	return regcast.Batch{Scenario: sc, RandomizeSource: true}, nil
}

type cellDefaults struct {
	n, d  int
	proto protoFactory
	// spec, when set (the -topology flag), replaces the default random
	// regular graph for every cell without a topology or churn axis.
	spec regcast.TopologySpec
}

// popWorkload is one value of the populations grid's workload axis: a
// population protocol at a concrete size (leader election on an n-clique,
// Herman's ring with k initial tokens, or approximate majority from an
// initial X-fraction).
type popWorkload struct {
	kind   string // "leader" | "herman" | "majority"
	n      int
	tokens int     // herman only: initial equally-spaced tokens
	frac   float64 // majority only: initial X-fraction
}

// buildPopulationCell realises a workload-axis cell as a Batch over a
// PopulationScenario, whose convergence metrics fold into the standard
// regcast.bench/v1 cells (rounds = mean convergence super-step,
// transmissions = interactions to convergence).
func buildPopulationCell(p regcast.Point) (regcast.Batch, error) {
	w := p.Value("workload").(popWorkload)
	sc := regcast.PopulationScenario{N: w.n, Seed: p.Seed}
	switch w.kind {
	case "leader":
		le, err := regcast.NewLeaderElection(w.n)
		if err != nil {
			return regcast.Batch{}, err
		}
		sc.Pair, sc.Init = le, regcast.InitAllLeaders
	case "herman":
		hm, err := regcast.NewHermanRing(w.n)
		if err != nil {
			return regcast.Batch{}, err
		}
		init, err := regcast.HermanInitTokens(w.n, w.tokens)
		if err != nil {
			return regcast.Batch{}, err
		}
		sc.Ring, sc.Init = hm, init
	case "majority":
		sc.Pair, sc.Init = regcast.NewApproxMajority(), regcast.InitMajority(w.frac)
	default:
		return regcast.Batch{}, fmt.Errorf("unknown population workload %q", w.kind)
	}
	return regcast.Batch{Scenario: sc}, nil
}

// populationAxis builds the populations grid's workload axis: a
// leader-election n-sweep, a Herman token-count sweep, and an
// approximate-majority margin sweep (the full table+counts fast-path
// workload).
func populationAxis(leaderNs []int, hermanN int, tokens []int, majorityN int, fracs []float64) regcast.Axis {
	ax := regcast.Axis{Name: "workload"}
	for _, n := range leaderNs {
		ax.Values = append(ax.Values, regcast.Val(fmt.Sprintf("leader-n%d", n),
			popWorkload{kind: "leader", n: n}))
	}
	for _, k := range tokens {
		ax.Values = append(ax.Values, regcast.Val(fmt.Sprintf("herman-n%d-k%d", hermanN, k),
			popWorkload{kind: "herman", n: hermanN, tokens: k}))
	}
	for _, f := range fracs {
		ax.Values = append(ax.Values, regcast.Val(fmt.Sprintf("majority-n%d-x%d", majorityN, int(f*100)),
			popWorkload{kind: "majority", n: majorityN, frac: f}))
	}
	return ax
}

// grid describes one named sweep preset.
type grid struct {
	about string
	reps  int // default replication count
	axes  []regcast.Axis
	def   cellDefaults
}

// grids are the named presets. "ci" is deliberately small: it is the
// benchmark smoke CI runs on every push.
var grids = map[string]grid{
	"ci": {
		about: "CI smoke: tiny n × {push, four-choice}",
		reps:  3,
		axes:  []regcast.Axis{regcast.Vals("n", 256, 512), protoAxis("push", "four-choice")},
		def:   cellDefaults{d: 8, proto: protocols["four-choice"]},
	},
	"scaling": {
		about: "the E1-shaped sweep: four-choice completion vs n",
		reps:  5,
		axes:  []regcast.Axis{regcast.Vals("n", 1<<10, 1<<11, 1<<12, 1<<13, 1<<14), protoAxis("four-choice")},
		def:   cellDefaults{d: 8, proto: protocols["four-choice"]},
	},
	"protocols": {
		about: "protocol comparison at one size",
		reps:  5,
		axes:  []regcast.Axis{protoAxis("push", "pull", "push-pull", "four-choice")},
		def:   cellDefaults{n: 1 << 12, d: 8, proto: protocols["four-choice"]},
	},
	"faults": {
		about: "channel-failure × message-loss fault grid on four-choice",
		reps:  5,
		axes: []regcast.Axis{
			regcast.Vals("failure", 0.0, 0.1, 0.2),
			regcast.Vals("loss", 0.0, 0.1, 0.2),
		},
		def: cellDefaults{n: 1 << 11, d: 8, proto: protocols["four-choice"]},
	},
	"degrees": {
		// d starts at 8: the four-choice model needs d >= 5 (core.New).
		about: "topology axis: degree sweep of the random regular graph",
		reps:  5,
		axes:  []regcast.Axis{regcast.Vals("d", 8, 16, 32, 64), protoAxis("four-choice")},
		def:   cellDefaults{n: 1 << 12, d: 8, proto: protocols["four-choice"]},
	},
	"topologies": {
		// Every family ships as a declarative spec, so each replication
		// builds its own fresh topology (~4096 nodes per family).
		about: "topology-family axis: declarative specs incl. a churning overlay",
		reps:  5,
		axes: []regcast.Axis{
			regcast.TopologyAxis(
				regcast.Val("regular", regcast.RegularGraphSpec{N: 1 << 12, D: 8}),
				regcast.Val("config-model", regcast.ConfigurationModelSpec{N: 1 << 12, D: 8, Erased: true}),
				regcast.Val("gnp", regcast.GnpSpec{N: 1 << 12, P: 8.0 / (1 << 12)}),
				regcast.Val("hypercube", regcast.HypercubeSpec{Dim: 12}),
				regcast.Val("torus", regcast.TorusSpec{Rows: 64, Cols: 64}),
				regcast.Val("overlay-churn", regcast.OverlaySpec{N: 1 << 12, D: 8, JoinProb: 0.005, LeaveProb: 0.005, MixSteps: 5}),
			),
			protoAxis("push-pull"),
		},
		def: cellDefaults{n: 1 << 12, d: 8, proto: protocols["push-pull"]},
	},
	"topologies-implicit": {
		// Implicit vs dense pairs of the algebraic-adjacency families. Each
		// cell draws its own grid seed, so the pairs are statistical — not
		// byte — twins here (bit-identity is pinned by the facade property
		// tests); what this grid tracks is the perf trajectory of the
		// implicit fast path, and with -mem its B/op advantage.
		about: "implicit-adjacency families paired with their materialised twins",
		reps:  3,
		axes: []regcast.Axis{
			regcast.TopologyAxis(
				regcast.Val("hypercube", regcast.HypercubeSpec{Dim: 12}),
				regcast.Val("hypercube-dense", regcast.HypercubeSpec{Dim: 12, Dense: true}),
				regcast.Val("torus", regcast.TorusSpec{Rows: 64, Cols: 64}),
				regcast.Val("torus-dense", regcast.TorusSpec{Rows: 64, Cols: 64, Dense: true}),
				regcast.Val("gnp-stream", regcast.GnpStreamSpec{N: 1 << 12, P: 16.0 / (1 << 12)}),
				regcast.Val("gnp-stream-dense", regcast.GnpStreamSpec{N: 1 << 12, P: 16.0 / (1 << 12), Dense: true}),
				regcast.Val("regular-stream", regcast.RegularStreamSpec{N: 1 << 12, D: 8}),
				regcast.Val("regular-stream-dense", regcast.RegularStreamSpec{N: 1 << 12, D: 8, Dense: true}),
			),
			protoAxis("push-pull"),
		},
		def: cellDefaults{n: 1 << 12, d: 8, proto: protocols["push-pull"]},
	},
	"churn": {
		// Overlay churn-rate sweep: the paper's p2p setting as a grid axis.
		about: "per-round join/leave rate sweep on the maintained overlay",
		reps:  5,
		axes:  []regcast.Axis{regcast.ChurnAxis(0, 0.002, 0.01, 0.02), protoAxis("algorithm1")},
		def:   cellDefaults{n: 1 << 11, d: 8, proto: protocols["algorithm1"]},
	},
	"populations": {
		// The interaction-scheduler grid: convergence metrics instead of
		// broadcast metrics (rounds = mean convergence super-step,
		// transmissions = interactions to convergence), same report schema.
		about: "population protocols: leader n-sweep + Herman tokens + majority margins",
		reps:  5,
		axes: []regcast.Axis{populationAxis(
			[]int{1 << 8, 1 << 9, 1 << 10, 1 << 11},
			101, []int{3, 5, 9, 17},
			1<<11, []float64{0.51, 0.55, 0.75})},
	},
}

// newSweep assembles the Sweep a named grid describes — factored out of
// run() so tests can execute grids directly with chosen pool widths.
func newSweep(name string, g grid, seed uint64, replications, repWorkers int, runner regcast.Runner, timing bool) regcast.Sweep {
	return regcast.Sweep{
		Name:               name,
		Seed:               seed,
		Axes:               g.axes,
		Replications:       replications,
		ReplicationWorkers: repWorkers,
		Runner:             runner,
		Timing:             timing,
		Build:              func(p regcast.Point) (regcast.Batch, error) { return buildCell(p, g.def) },
	}
}

func gridNames() string {
	names := make([]string, 0, len(grids))
	for name := range grids {
		names = append(names, name)
	}
	sort.Strings(names)
	return strings.Join(names, "|")
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "regcast-bench:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		gridName = flag.String("grid", "ci", "sweep grid to run: "+gridNames())
		reps     = flag.Int("reps", 0, "replications per cell (0 = the grid's default)")
		repWork  = flag.Int("rep-workers", 0,
			"replication-pool workers over whole runs: 0/1 = serial, -1 = GOMAXPROCS, n = n workers (never changes results)")
		format = flag.String("format", "json", "output format: json|csv")
		out    = flag.String("o", "", "output file (default stdout)")
		timing = flag.Bool("timing", false, "record per-cell wall-clock (machine-dependent; breaks byte-determinism)")
		mem    = flag.Bool("mem", false, "record per-cell allocation (B/op) and heap-sys (machine-dependent; breaks byte-determinism)")
		common = regcast.AddCommonFlags(flag.CommandLine)
	)
	flag.Parse()
	if err := common.Validate(); err != nil {
		return err
	}
	stopProfiles, err := common.StartProfiles()
	if err != nil {
		return err
	}
	defer stopProfiles()
	if *repWork < regcast.WorkersAuto {
		return fmt.Errorf("-rep-workers %d invalid (use -1, 0 or a positive count)", *repWork)
	}
	g, ok := grids[*gridName]
	if !ok {
		return fmt.Errorf("unknown grid %q (have %s)", *gridName, gridNames())
	}
	replications := g.reps
	if *reps > 0 {
		replications = *reps
	}

	g.def.spec = common.TopologySpec()
	sweep := newSweep(*gridName, g, common.Seed, replications, *repWork, common.Runner(), *timing)
	sweep.MemStats = *mem
	report, err := sweep.Run(context.Background())
	if err != nil {
		return err
	}

	var w io.Writer = os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	switch *format {
	case "json":
		err = report.WriteJSON(w)
	case "csv":
		err = report.WriteCSV(w)
	default:
		err = fmt.Errorf("unknown format %q (json|csv)", *format)
	}
	return err
}
