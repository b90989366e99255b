package experiments

import (
	"fmt"

	"regcast"
	"regcast/internal/baseline"
	"regcast/internal/core"
	"regcast/internal/table"
	"regcast/internal/xrand"
)

func init() {
	register(Experiment{
		ID:    "E9",
		Title: "Protocol comparison: informed-set trajectories and total cost",
		PaperClaim: "§1: push grows exponentially then pays Θ(log n) saturation rounds; " +
			"pull starts slowly but finishes double-exponentially; push&pull and the " +
			"four-choice algorithm combine the good ends — the classic gossip 'figure'.",
		Run: runE9,
	})
	register(Experiment{
		ID:    "E10",
		Title: "Choice-count ablation (the §5 open question)",
		PaperClaim: "§5: four choices give O(n·log log n); the authors believe three " +
			"suffice; two are open; one falls back to the Ω(n·log n/log d) regime.",
		Run: runE10,
	})
	register(Experiment{
		ID:    "E11",
		Title: "Sequentialised model (footnote 2)",
		PaperClaim: "Footnote 2: one dial per round avoiding the last three partners is " +
			"equivalent to the four-choice model with a ×4 round stretch and the same " +
			"transmission behaviour.",
		Run: runE11,
	})
}

func runE9(o Options) ([]*table.Table, error) {
	n := 1 << 14
	if o.Quick {
		n = 1 << 11
	}
	const d = 8
	master := xrand.New(o.Seed)
	g, err := regular(n, d, master.Split())
	if err != nil {
		return nil, err
	}

	four, err := core.NewAlgorithm1(n)
	if err != nil {
		return nil, err
	}
	push, err := baseline.NewPush(n, 1)
	if err != nil {
		return nil, err
	}
	pull, err := baseline.NewPull(n, 1)
	if err != nil {
		return nil, err
	}
	pp, err := baseline.NewPushPull(n, 1)
	if err != nil {
		return nil, err
	}
	protos := []regcast.Protocol{push, pull, pp, four}

	// Trajectories: informed fraction at each round, one run per protocol.
	traj := make([][]float64, len(protos))
	summary := table.New(fmt.Sprintf("E9b: protocol summary, n=%d d=%d", n, d),
		"protocol", "choices", "completion round", "tx/n", "completed")
	maxRounds := 0
	for i, p := range protos {
		res, perRound, err := o.runRounds(regcast.Static(g), p, regcast.WithRNG(master.Split()))
		if err != nil {
			return nil, err
		}
		for _, rm := range perRound {
			traj[i] = append(traj[i], float64(rm.Informed)/float64(n))
		}
		if len(traj[i]) > maxRounds {
			maxRounds = len(traj[i])
		}
		comp := "-"
		if res.FirstAllInformed > 0 {
			comp = fmt.Sprintf("%d", res.FirstAllInformed)
		}
		summary.AddRow(p.Name(), p.Choices(), comp,
			f1(float64(res.Transmissions)/float64(n)), res.AllInformed)
	}

	curves := table.New(fmt.Sprintf("E9a: informed fraction per round, n=%d d=%d", n, d),
		"round", "push", "pull", "push&pull", "4-choice")
	for r := 0; r < maxRounds; r++ {
		row := []any{r + 1}
		done := 0
		for i := range protos {
			if r < len(traj[i]) {
				row = append(row, f3(traj[i][r]))
				if traj[i][r] >= 1 {
					done++
				}
			} else {
				row = append(row, "-")
				done++
			}
		}
		curves.AddRow(row...)
		if done == len(protos) {
			break
		}
	}
	curves.AddNote("pull's flat start (the source must be dialled) and push's long tail are the §1 asymmetry; the 4-choice curve saturates fastest")
	summary.AddNote("push&pull's per-node cost carries a small constant (~1/log d) on its Ω(log n/log d) growth, so at feasible n it can undercut the 4-choice constant — the separation the paper proves is in the growth rate (see E2's fits), not the level at one n")
	return []*table.Table{curves, summary}, nil
}

func runE10(o Options) ([]*table.Table, error) {
	const d = 8
	reps := repsFor(o)
	tb := table.New("E10: k-choice ablation of the paper's schedule, d=8",
		"n", "k", "tx/n", "completed", "informed frac")
	master := xrand.New(o.Seed)
	ns := sizes(o)
	// The sweep is the point here, but keep the table readable: use the
	// smallest, middle and largest n.
	ns = []int{ns[0], ns[len(ns)/2], ns[len(ns)-1]}
	for _, n := range ns {
		g, err := regular(n, d, master.Split())
		if err != nil {
			return nil, err
		}
		for k := 1; k <= 4; k++ {
			proto, err := core.NewAlgorithm1(n, core.WithChoices(k))
			if err != nil {
				return nil, err
			}
			st, err := measure(o, g, proto, master.Uint64(), reps)
			if err != nil {
				return nil, err
			}
			tb.AddRow(n, k, f1(st.MeanTxPerNode), pct(st.CompletedFrac), f3(st.InformedFrac))
		}
	}
	tb.AddNote("k=4 is the paper's protocol; k=3 (the §5 conjecture) and even k=2 (open) complete with flat per-node cost at these scales")
	tb.AddNote("k=1 also completes — Phase 4's push chains mop up — but its tx/n grows with n (the Theorem 1 regime), while k ≥ 2 stays flat")
	return []*table.Table{tb}, nil
}

func runE11(o Options) ([]*table.Table, error) {
	const d = 8
	reps := repsFor(o)
	tb := table.New("E11: four-choice vs sequentialised (memory-3) model, d=8",
		"n", "model", "rounds (mean)", "round ratio", "tx/n", "completed")
	master := xrand.New(o.Seed)
	ns := sizes(o)
	ns = ns[:len(ns)-1] // the ×4 horizon makes the largest size slow
	for _, n := range ns {
		g, err := regular(n, d, master.Split())
		if err != nil {
			return nil, err
		}
		base, err := core.NewAlgorithm1(n)
		if err != nil {
			return nil, err
		}
		seq := core.NewSequentialised(base)
		stBase, err := measure(o, g, base, master.Uint64(), reps)
		if err != nil {
			return nil, err
		}
		stSeq, err := measure(o, g, seq, master.Uint64(), reps)
		if err != nil {
			return nil, err
		}
		tb.AddRow(n, "four-choice", f1(stBase.MeanRounds), "1.00", f1(stBase.MeanTxPerNode), pct(stBase.CompletedFrac))
		ratio := "-"
		if stBase.MeanRounds > 0 {
			ratio = f2(stSeq.MeanRounds / stBase.MeanRounds)
		}
		tb.AddRow(n, "sequentialised", f1(stSeq.MeanRounds), ratio, f1(stSeq.MeanTxPerNode), pct(stSeq.CompletedFrac))
	}
	tb.AddNote("footnote 2 predicts a round ratio near 4 and matching per-node transmissions")
	return []*table.Table{tb}, nil
}
