package experiments

import (
	"context"
	"fmt"
	"math"

	"regcast"
	"regcast/internal/table"
)

// E21/E22 exercise the population-protocol engine family (the
// facade's PopulationScenario) on the two exemplar
// workloads from PAPERS.md: self-stabilizing leader election under
// uniform random pairs (arXiv:2505.01210) and Herman's self-stabilizing
// token ring in its synchronous coin-flip variant (arXiv:1504.01130).
// Unlike E1–E20 these validate related-work claims, not theorems of
// BerenbrinkEF08; they are the convergence-time counterpart of the
// broadcast-time experiments.

func init() {
	register(Experiment{
		ID:    "E21",
		Title: "Self-stabilizing leader election: interactions to one leader",
		PaperClaim: "Ranked-timeout leader election (cf. arXiv:2505.01210) converges from " +
			"canonical adversarial starts (all leaders / no leaders) to exactly one leader " +
			"in Θ(n·log n) interactions; interactions/(n·ln n) should stay bounded as n grows.",
		Population: true,
		Run:        runE21,
	})
	register(Experiment{
		ID:    "E24",
		Title: "Approximate majority: consensus time and correctness vs initial margin",
		PaperClaim: "Three-state approximate majority (undecided-state dynamics, Angluin–Aspnes–" +
			"Eisenstat DISC 2007) reaches consensus in O(n·log n) interactions w.h.p., and picks the " +
			"initial majority w.h.p. once the margin exceeds ω(√n·log n); interactions/(n·ln n) should " +
			"stay bounded across the sweep and the picked-majority fraction should rise with the margin.",
		Population: true,
		Run:        runE24,
	})
	register(Experiment{
		ID:    "E22",
		Title: "Herman's token ring: steps to a single circulating token",
		PaperClaim: "Herman's synchronous coin-flip ring (arXiv:1504.01130) converges from any " +
			"odd-token start to one token in O(N²) expected steps; the conjectured worst case " +
			"(3 equally spaced tokens) takes 4N²/27 ≈ 0.148·N² — mean steps/N² should hover at or below that constant.",
		Population: true,
		Run:        runE22,
	})
}

// popSizes is the agent-count sweep for E21.
func popSizes(o Options) []int {
	if o.Quick {
		return []int{1 << 7, 1 << 8, 1 << 9}
	}
	return []int{1 << 7, 1 << 8, 1 << 9, 1 << 10, 1 << 11, 1 << 12}
}

// popReps is the replication count for the population experiments —
// higher than repsFor because each run is cheap and convergence times
// are noisier than broadcast times.
func popReps(o Options) int {
	if o.Quick {
		return 8
	}
	return 32
}

func runE21(o Options) ([]*table.Table, error) {
	reps := popReps(o)
	tb := table.New("E21: leader election, interactions to convergence",
		"n", "start", "super-steps (mean)", "interactions (mean)", "inter/(n·ln n)", "converged")
	starts := []struct {
		name string
		init func(i, n int, coin uint64) regcast.PopulationState
	}{
		{"all-leaders", regcast.InitAllLeaders},
		{"leaderless", regcast.InitLeaderless},
	}
	master := regcast.NewRand(o.Seed)
	for _, n := range popSizes(o) {
		for _, start := range starts {
			le, err := regcast.NewLeaderElection(n)
			if err != nil {
				return nil, err
			}
			res, err := regcast.Batch{
				Scenario:           regcast.PopulationScenario{N: n, Pair: le, Init: start.init, Seed: master.Uint64()},
				Replications:       reps,
				ReplicationWorkers: o.ReplicationWorkers,
				Runner:             o.runner(),
			}.Run(context.Background())
			if err != nil {
				return nil, err
			}
			nlogn := float64(n) * math.Log(float64(n))
			tb.AddRow(n, start.name, f1(res.Rounds.Mean), f1(res.Transmissions.Mean),
				f2(res.Transmissions.Mean/nlogn), pct(res.CompletedFrac()))
		}
	}
	tb.AddNote("interactions counted at super-step granularity (one super-step = n interactions); " +
		"bounded inter/(n·ln n) across the sweep ⇔ Θ(n·log n) convergence")
	tb.AddNote("worst-case arbitrary starts (poisoned max-seen rank) additionally pay the protocol's " +
		"rank-space factor — the space–time trade-off of arXiv:2505.01210, not swept here")
	return []*table.Table{tb}, nil
}

func runE24(o Options) ([]*table.Table, error) {
	reps := popReps(o)
	tb := table.New("E24: approximate majority, consensus time and correctness",
		"n", "X-fraction", "super-steps (mean)", "interactions (mean)", "inter/(n·ln n)",
		"consensus", "picked majority")
	master := regcast.NewRand(o.Seed)
	for _, n := range popSizes(o) {
		for _, frac := range []float64{0.51, 0.55, 0.75} {
			res, err := regcast.Batch{
				Scenario: regcast.PopulationScenario{
					N: n, Pair: regcast.NewApproxMajority(), Init: regcast.InitMajority(frac),
					Seed: master.Uint64(),
				},
				Replications:       reps,
				ReplicationWorkers: o.ReplicationWorkers,
				Runner:             o.runner(),
				KeepResults:        true,
			}.Run(context.Background())
			if err != nil {
				return nil, err
			}
			picked := 0
			for _, r := range res.Results {
				if p := r.Population; p.Converged && len(p.Final) > 0 && p.Final[0] == regcast.MajorityX {
					picked++
				}
			}
			nlogn := float64(n) * math.Log(float64(n))
			tb.AddRow(n, f2(frac), f1(res.Rounds.Mean), f1(res.Transmissions.Mean),
				f2(res.Transmissions.Mean/nlogn), pct(res.CompletedFrac()),
				pct(float64(picked)/float64(reps)))
		}
	}
	tb.AddNote("three states, deterministic transitions: the protocol table-compiles (16-entry table) " +
		"and its measure folds through the occupancy vector — the canonical full-fast-path workload")
	tb.AddNote("close races (margin O(√n)) may legitimately pick the minority; the w.h.p. guarantee " +
		"needs margin ω(√n·log n)")
	return []*table.Table{tb}, nil
}

func runE22(o Options) ([]*table.Table, error) {
	reps := popReps(o)
	n := 101
	if o.Quick {
		n = 51
	}
	tb := table.New(fmt.Sprintf("E22: Herman's ring N=%d, steps to one token", n),
		"tokens", "steps (mean)", "steps (p90)", "steps/N²", "4N²/27 bound", "converged")
	master := regcast.NewRand(o.Seed)
	bound := 4 * float64(n) * float64(n) / 27
	for _, k := range []int{3, 5, 9, 17} {
		hm, err := regcast.NewHermanRing(n)
		if err != nil {
			return nil, err
		}
		init, err := regcast.HermanInitTokens(n, k)
		if err != nil {
			return nil, err
		}
		res, err := regcast.Batch{
			Scenario:           regcast.PopulationScenario{N: n, Ring: hm, Init: init, Seed: master.Uint64()},
			Replications:       reps,
			ReplicationWorkers: o.ReplicationWorkers,
			Runner:             o.runner(),
		}.Run(context.Background())
		if err != nil {
			return nil, err
		}
		tb.AddRow(k, f1(res.Rounds.Mean), f1(res.Rounds.P90),
			f3(res.Rounds.Mean/(float64(n)*float64(n))), f1(bound), pct(res.CompletedFrac()))
	}
	tb.AddNote("odd ring keeps the token count odd and non-increasing, so every start converges to 1; " +
		"the k=3 equally-spaced row is the conjectured worst case of arXiv:1504.01130")
	return []*table.Table{tb}, nil
}
