// Command graphgen generates a random regular graph (configuration model
// or simple Steger–Wormald) and reports its structural statistics:
// degrees, self-loops, parallel edges, connectivity, diameter estimate,
// spectral expansion, and a push-broadcast probe run through the regcast
// facade (so -workers selects the engine exactly as in broadcast-sim).
//
// Usage:
//
//	graphgen -n 4096 -d 8 -model simple
//	graphgen -n 1024 -d 6 -model pairing -seed 7 -workers -1
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"regcast"
	"regcast/internal/baseline"
	"regcast/internal/graph"
	"regcast/internal/spectral"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "graphgen:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		n      = flag.Int("n", 4096, "number of nodes")
		d      = flag.Int("d", 8, "degree")
		model  = flag.String("model", "simple", "generator: simple|pairing|erased")
		common = regcast.AddCommonFlags(flag.CommandLine)
	)
	flag.Parse()
	if err := common.Validate(); err != nil {
		return err
	}
	if common.Scheduler() != regcast.SchedulerRounds {
		return fmt.Errorf("-scheduler %s: the push-broadcast probe runs on the rounds scheduler only", common.SchedulerName)
	}
	stopProfiles, err := common.StartProfiles()
	if err != nil {
		return err
	}
	defer stopProfiles()

	master := common.Rand()
	var g *regcast.Graph
	switch *model {
	case "simple":
		g, err = graph.RandomRegular(*n, *d, master.Split())
	case "pairing":
		g, err = graph.ConfigurationModel(*n, *d, master.Split())
	case "erased":
		g, err = graph.ErasedConfigurationModel(*n, *d, master.Split())
	default:
		return fmt.Errorf("unknown model %q", *model)
	}
	if err != nil {
		return err
	}

	fmt.Printf("model: %s, n=%d, d=%d, edges=%d\n", *model, g.NumNodes(), *d, g.NumEdges())
	fmt.Printf("degrees: min=%d max=%d regular(d)=%v\n", g.MinDegree(), g.MaxDegree(), g.IsRegular(*d))
	fmt.Printf("self-loops: %d, surplus parallel edges: %d, simple: %v\n",
		g.SelfLoopCount(), g.MultiEdgeCount(), g.IsSimple())
	_, comps := g.ConnectedComponents()
	fmt.Printf("connected: %v (%d components)\n", comps == 1, comps)
	if comps == 1 {
		if diam, err := g.DiameterLowerBound(0); err == nil {
			fmt.Printf("diameter (double-sweep lower bound): %d\n", diam)
		}
		l2, err := spectral.SecondEigenvalue(g, 200, master.Split())
		if err != nil {
			return err
		}
		bound := spectral.AlonBoppanaBound(*d)
		fmt.Printf("|λ2| ≈ %.3f, 2√(d−1) = %.3f, ratio %.3f\n", l2, bound, l2/bound)
	}

	// Broadcast probe: a plain push rumour from node 0, run through the
	// facade so the engine follows -workers. Rounds-to-completion is a
	// cheap functional check of the generated topology (≈ log n + ln n on
	// a good expander, never finishing on a disconnected graph).
	probe, err := baseline.NewPush(g.NumNodes(), 1)
	if err != nil {
		return err
	}
	sopts := []regcast.ScenarioOption{regcast.WithRNG(master.Split()), regcast.WithStopEarly()}
	phases := common.PhaseTotals()
	if phases != nil {
		sopts = append(sopts, regcast.WithObserver(phases))
	}
	scenario, err := regcast.NewScenario(regcast.Static(g), probe, sopts...)
	if err != nil {
		return err
	}
	res, err := regcast.Run(context.Background(), scenario, common.RunnerOptions()...)
	if err != nil {
		return err
	}
	fmt.Printf("broadcast probe (push, 1 dial/round): informed %d/%d", res.Informed, res.AliveNodes)
	if res.AllInformed {
		fmt.Printf(" in %d rounds\n", res.FirstAllInformed)
	} else {
		fmt.Printf(" after %d rounds (incomplete)\n", res.Rounds)
	}
	if phases != nil {
		fmt.Println(phases)
	}
	return nil
}
