// Command broadcast-sim runs one broadcast on a random d-regular graph
// under a chosen protocol and prints a per-round trace plus a summary.
// The trace is streamed through the regcast Observer API as the engine
// produces it, not retained and dumped afterwards.
//
// Usage:
//
//	broadcast-sim -n 4096 -d 8 -protocol fourchoice -seed 1 -trace
//	broadcast-sim -n 1000000 -d 16 -protocol push -workers -1   # pooled shard passes
//	broadcast-sim -topology hypercube:dim=27 -protocol push -stop-early -mem
//	broadcast-sim -topology regular-stream:n=1000000,d=8 -protocol push -phases
//	broadcast-sim -scheduler interactions -n 1024 -trace        # population demo
//	broadcast-sim -n 32 -d 6 -daemon                            # gossip daemon over sockets
//	broadcast-sim -n 32 -d 6 -chaos -chaos-drop 0.2             # + seeded fault injection
//
// Protocols: fourchoice (auto variant), algorithm1, algorithm2, seq
// (sequentialised four-choice), push, pull, pushpull. With
// -scheduler interactions the command instead runs the self-stabilizing
// leader-election population protocol on an -n agent clique from the
// all-leaders adversarial start, tracing super-steps.
//
// The -topology flag overrides -n/-d with any parseable topology
// spec (regcast.ParseTopologySpec); implicit families (hypercube, torus,
// gnp-stream, regular-stream) never materialise adjacency, which is what
// makes 100M+-node runs fit one box.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"regcast"
	"regcast/internal/baseline"
	"regcast/internal/core"
	"regcast/internal/viz"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "broadcast-sim:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		n         = flag.Int("n", 4096, "number of nodes")
		d         = flag.Int("d", 8, "degree of the random regular graph")
		protoSel  = flag.String("protocol", "fourchoice", "protocol: fourchoice|algorithm1|algorithm2|seq|push|pull|pushpull")
		alpha     = flag.Float64("alpha", core.DefaultAlpha, "phase-length constant α for the four-choice schedules")
		choices   = flag.Int("choices", core.Choices, "dials per round for the four-choice schedules (ablation)")
		failure   = flag.Float64("failure", 0, "channel establishment failure probability")
		loss      = flag.Float64("loss", 0, "per-transmission message loss probability")
		source    = flag.Int("source", 0, "source node id")
		trace     = flag.Bool("trace", false, "print a per-round trace")
		stopEarly = flag.Bool("stop-early", false, "stop as soon as every node is informed (skip the schedule's tail)")
		mem       = flag.Bool("mem", false, "report allocation totals (runtime.MemStats) for the run")
		topology  = flag.String("topology", "",
			"topology spec overriding -n/-d, family:key=val,... (e.g. hypercube:dim=27, torus:rows=64,cols=64, gnp-stream:n=4096,p=0.004, regular:n=4096,d=8; see regcast.ParseTopologySpec)")
		common = regcast.AddCommonFlags(flag.CommandLine)
		tflags = regcast.AddTransportFlags(flag.CommandLine)
	)
	flag.Parse()
	if err := common.Validate(); err != nil {
		return err
	}
	var spec regcast.TopologySpec
	if *topology != "" {
		var err error
		if spec, err = regcast.ParseTopologySpec(*topology); err != nil {
			return fmt.Errorf("-topology: %w", err)
		}
	}
	stopProfiles, err := common.StartProfiles()
	if err != nil {
		return err
	}
	defer stopProfiles()
	if err := tflags.Validate(); err != nil {
		return err
	}
	if common.Scheduler() == regcast.SchedulerInteractions {
		return runPopulation(*n, *trace, common)
	}

	var memBefore runtime.MemStats
	if *mem {
		runtime.GC()
		runtime.ReadMemStats(&memBefore)
	}

	master := common.Rand()
	if tflags.Daemon && spec != nil {
		return fmt.Errorf("-daemon/-chaos need the dense -n/-d graph (the daemon engine requires a Static topology)")
	}
	if spec != nil {
		if nn := regcast.SpecNodeCount(spec); nn > 0 {
			*n = nn // protocol horizons are functions of n
		}
	}
	// The wall a user waits for has three parts: building the topology, the
	// structural report on it, the run. A -topology spec is built inside the
	// run, from the run's own stream; its build and report read ~0.
	start := time.Now()
	var g *regcast.Graph
	if spec == nil {
		g, err = regcast.NewRegularGraph(*n, *d, master.Split())
		if err != nil {
			return err
		}
	}
	built := time.Now()

	var proto regcast.Protocol
	avoidRecent := 0
	opts := []core.Option{core.WithAlpha(*alpha), core.WithChoices(*choices)}
	switch *protoSel {
	case "fourchoice":
		proto, err = core.New(*n, *d, opts...)
	case "algorithm1":
		proto, err = core.NewAlgorithm1(*n, opts...)
	case "algorithm2":
		proto, err = core.NewAlgorithm2(*n, opts...)
	case "seq":
		var base *core.FourChoice
		base, err = core.NewAlgorithm1(*n, opts...)
		if err == nil {
			seq := core.NewSequentialised(base)
			proto = seq
			avoidRecent = seq.Memory()
		}
	case "push":
		proto, err = baseline.NewPush(*n, 1)
	case "pull":
		proto, err = baseline.NewPull(*n, 1)
	case "pushpull":
		proto, err = baseline.NewPushPull(*n, 1)
	default:
		return fmt.Errorf("unknown protocol %q", *protoSel)
	}
	if err != nil {
		return err
	}

	if spec == nil {
		fmt.Printf("graph: G(%d,%d) simple=%v connected=%v\n", *n, *d, g.IsSimple(), g.IsConnected())
	} else {
		kind := "dense"
		if regcast.SpecImplicit(spec) {
			kind = "implicit"
		}
		fmt.Printf("topology: %s (%s, n=%d)\n", *topology, kind, *n)
		if rs, ok := spec.(regcast.RegularStreamSpec); ok && rs.D == 2 {
			fmt.Println("note: regular-stream with d=2 is a single permutation 2-factor, a disjoint union of cycles that is almost never connected; use d >= 4 for broadcast")
		}
	}
	reported := time.Now()
	fmt.Printf("protocol: %s (choices=%d horizon=%d)\n", proto.Name(), proto.Choices(), proto.Horizon())

	sopts := []regcast.ScenarioOption{
		regcast.WithSource(*source),
		regcast.WithRNG(master.Split()),
		regcast.WithChannelFailure(*failure),
		regcast.WithMessageLoss(*loss),
		regcast.WithAvoidRecent(avoidRecent),
	}
	if *stopEarly {
		sopts = append(sopts, regcast.WithStopEarly())
	}
	var fractions []float64
	if *trace {
		fmt.Println("round  newly  informed  transmissions")
		sopts = append(sopts, regcast.WithObserver(regcast.ObserverFuncs{
			Round: func(rm regcast.RoundStats) {
				fmt.Printf("%5d  %5d  %8d  %13d\n", rm.Round, rm.NewlyInformed, rm.Informed, rm.Transmissions)
				fractions = append(fractions, float64(rm.Informed)/float64(*n))
			},
		}))
	}
	phases := common.PhaseTotals()
	if phases != nil {
		sopts = append(sopts, regcast.WithObserver(phases))
	}
	var scenario regcast.Scenario
	if spec == nil {
		scenario, err = regcast.NewScenario(regcast.Static(g), proto, sopts...)
	} else {
		scenario, err = regcast.NewScenarioSpec(spec, proto, sopts...)
	}
	if err != nil {
		return err
	}
	ropts := append(common.RunnerOptions(), tflags.RunnerOptions(*n, common.Seed)...)
	res, err := regcast.Run(context.Background(), scenario, ropts...)
	if err != nil {
		return err
	}
	done := time.Now()
	if *trace {
		if chart, err := viz.Chart(64, 12, viz.Series{Name: "informed fraction", Values: fractions}); err == nil {
			fmt.Println()
			fmt.Print(chart)
		}
	}
	fmt.Printf("completed: %v (informed %d/%d)\n", res.AllInformed, res.Informed, res.AliveNodes)
	if res.FirstAllInformed > 0 {
		fmt.Printf("all informed after round: %d\n", res.FirstAllInformed)
	}
	fmt.Printf("transmissions: %d (%.2f per node)\n", res.Transmissions, float64(res.Transmissions)/float64(*n))
	fmt.Printf("channels dialled: %d\n", res.ChannelsDialed)
	if res.CountedRounds > 0 {
		fmt.Printf("note: rounds %d–%d counted, not simulated (every node informed; static, fault-free topology)\n",
			res.Rounds-res.CountedRounds+1, res.Rounds)
	}
	ms := func(from, to time.Time) time.Duration { return to.Sub(from).Round(time.Millisecond) }
	fmt.Printf("wall clock: %s (build %s, report %s, run %s)\n",
		ms(start, done), ms(start, built), ms(built, reported), ms(reported, done))
	if phases != nil {
		fmt.Println(phases)
	}
	if res.TickTimeouts > 0 {
		fmt.Printf("tick timeouts: %d of %d ticks hit the drain deadline (receipt rounds are skewed late)\n", res.TickTimeouts, res.Rounds)
	}
	if res.Transport != nil {
		printTransportHealth(res.Transport)
	}
	if *mem {
		var after runtime.MemStats
		runtime.ReadMemStats(&after)
		alloc := after.TotalAlloc - memBefore.TotalAlloc
		fmt.Printf("memory: %.1f MB allocated (%.1f B/node), heap sys %.1f MB\n",
			float64(alloc)/(1<<20), float64(alloc)/float64(*n), float64(after.HeapSys)/(1<<20))
	}
	return nil
}

// printTransportHealth renders the daemon's metrics ledger and, under
// -chaos, the fault-injection ledger.
func printTransportHealth(h *regcast.TransportHealth) {
	fmt.Printf("daemon: sends=%d delivered=%d deduped=%d dropped=%d ledger-gap=%d\n",
		h.Sends, h.Delivered, h.Deduped, h.DroppedTotal(), h.LedgerGap())
	fmt.Printf("daemon: dials=%d redials=%d dial-fails=%d retries=%d evictions=%d wire-lost=%d\n",
		h.Dials, h.Redials, h.DialFails, h.Retries, h.BudgetEvictions, h.WireLost())
	states := map[string]int{}
	for _, p := range h.Peers {
		states[p.StateStr]++
	}
	fmt.Printf("daemon: peers %v\n", states)
	if f := h.Faults; f != nil {
		fmt.Printf("chaos: in=%d forwarded=%d dropped=%d partition-drops=%d crash-drops=%d dup=%d delayed=%d reordered=%d\n",
			f.In, f.Forwarded, f.Dropped, f.PartitionDrops, f.CrashDrops, f.Duplicated, f.Delayed, f.Reordered)
	}
}

// runPopulation is the -scheduler interactions path: one leader-election
// run on an n-agent clique from the all-leaders adversarial start,
// honouring -seed, -workers and -trace.
func runPopulation(n int, trace bool, common *regcast.CommonFlags) error {
	le, err := regcast.NewLeaderElection(n)
	if err != nil {
		return err
	}
	sc := regcast.PopulationScenario{
		N:    n,
		Pair: le,
		Init: regcast.InitAllLeaders,
		Seed: common.Seed,
	}
	fmt.Printf("population: %s on an n=%d clique, all-leaders start\n", le.Name(), n)
	var fractions []float64
	if trace {
		fmt.Println(" step  interactions  changed  leaders")
		sc.Observer = superStepPrinter{n: n, fractions: &fractions}
	}
	run, err := regcast.Run(context.Background(), sc, common.RunnerOptions()...)
	if err != nil {
		return err
	}
	res := run.Population
	if trace && len(fractions) > 1 {
		if chart, err := viz.Chart(64, 12, viz.Series{Name: "leader fraction", Values: fractions}); err == nil {
			fmt.Println()
			fmt.Print(chart)
		}
	}
	fmt.Printf("converged: %v (final leaders %d)\n", res.Converged, res.Measure)
	if res.Converged {
		fmt.Printf("convergence: super-step %d after %d interactions\n", res.ConvergedAt, res.ConvergedInteractions)
	}
	fmt.Printf("total: %d super-steps, %d interactions\n", res.Steps, res.Interactions)
	return nil
}

// superStepPrinter streams the population trace as the engine produces it.
type superStepPrinter struct {
	n         int
	fractions *[]float64
}

func (p superStepPrinter) OnSuperStep(s regcast.SuperStepStats) {
	fmt.Printf("%5d  %12d  %7d  %7d\n", s.Step, s.Interactions, s.Changed, s.Measure)
	*p.fractions = append(*p.fractions, float64(s.Measure)/float64(p.n))
}
