// Leader election: run the self-stabilizing population protocol on an
// n-agent clique from both canonical adversarial starts — everyone a
// leader, and nobody a leader — and watch the interaction scheduler
// converge to exactly one leader in Θ(n·log n) interactions. Programmed
// entirely against the public regcast facade (the SchedulerInteractions
// side: PopulationScenario through Run).
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"math"

	"regcast"
)

func main() {
	nFlag := flag.Int("n", 1<<10, "number of agents")
	flag.Parse()
	n := *nFlag

	starts := []struct {
		name string
		init func(i, n int, coin uint64) regcast.PopulationState
	}{
		{"all leaders", regcast.InitAllLeaders},
		{"no leaders", regcast.InitLeaderless},
	}
	for _, start := range starts {
		le, err := regcast.NewLeaderElection(n)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("start %q: n=%d agents, uniform random pairs\n", start.name, n)
		fmt.Println("  step  changed  leaders")

		sc := regcast.PopulationScenario{
			N:        n,
			Pair:     le,
			Init:     start.init,
			Seed:     42,
			Observer: stepPrinter{},
		}
		// Pooled shard passes execute the same trace as inline ones —
		// worker count never changes a result, only wall-clock.
		res, err := regcast.Run(context.Background(), sc,
			regcast.WithWorkers(regcast.WorkersAuto))
		if err != nil {
			log.Fatal(err)
		}

		// The shared Result carries convergence as AllInformed /
		// FirstAllInformed / Transmissions; res.Population has the
		// protocol-specific rest (Measure, final states).
		nlogn := float64(n) * math.Log(float64(n))
		fmt.Printf("  converged=%v at super-step %d: %d interactions = %.2f·n·ln n\n\n",
			res.AllInformed, res.FirstAllInformed, res.Transmissions,
			float64(res.Transmissions)/nlogn)
	}
}

// stepPrinter streams per-super-step stats as the engine produces them.
type stepPrinter struct{}

func (stepPrinter) OnSuperStep(s regcast.SuperStepStats) {
	fmt.Printf("  %4d  %7d  %7d\n", s.Step, s.Changed, s.Measure)
}
