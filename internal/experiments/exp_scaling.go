package experiments

import (
	"fmt"
	"math"

	"regcast"
	"regcast/internal/baseline"
	"regcast/internal/core"
	"regcast/internal/stats"
	"regcast/internal/table"
	"regcast/internal/xrand"
)

func init() {
	register(Experiment{
		ID:    "E1",
		Title: "Algorithm 1 broadcast time vs n (small degree)",
		PaperClaim: "Theorem 2: on G(n,d) with small d, Algorithm 1 informs all nodes " +
			"within O(log n) rounds a.a.s.; completion round should grow linearly in log₂ n.",
		Run: runE1,
	})
	register(Experiment{
		ID:    "E2",
		Title: "Algorithm 1 transmissions vs n against push/push&pull",
		PaperClaim: "Theorem 2: O(n·log log n) transmissions for the four-choice algorithm " +
			"vs Θ(n·log n) for one-choice push — per-node cost grows like log log n vs log n.",
		Run: runE2,
	})
	register(Experiment{
		ID:    "E3",
		Title: "Algorithm 2 on large degrees (d ≈ log n)",
		PaperClaim: "Theorem 3: for δ·log log n ≤ d ≤ δ·log n, Algorithm 2 broadcasts in " +
			"O(log n) rounds with O(n·log log n) transmissions.",
		Run: runE3,
	})
}

func runE1(o Options) ([]*table.Table, error) {
	const d = 8
	reps := repsFor(o)
	tb := table.New("E1: Algorithm 1 completion time, d=8",
		"n", "log2(n)", "rounds (mean)", "rounds/log2(n)", "horizon", "completed")
	master := xrand.New(o.Seed)
	var xs, ys []float64
	for _, n := range sizes(o) {
		g, err := regular(n, d, master.Split())
		if err != nil {
			return nil, err
		}
		proto, err := core.NewAlgorithm1(n)
		if err != nil {
			return nil, err
		}
		st, err := measure(o, g, proto, master.Uint64(), reps)
		if err != nil {
			return nil, err
		}
		logN := math.Log2(float64(n))
		tb.AddRow(n, f1(logN), f1(st.MeanRounds), f2(st.MeanRounds/logN),
			proto.Horizon(), pct(st.CompletedFrac))
		if st.CompletedFrac > 0 {
			xs = append(xs, logN)
			ys = append(ys, st.MeanRounds)
		}
	}
	if fit, err := stats.FitLine(xs, ys); err == nil {
		tb.AddNote("linear fit rounds ≈ %.2f·log₂(n) + %.1f (R²=%.3f) — O(log n) ⇔ bounded slope",
			fit.Slope, fit.Intercept, fit.R2)
	}
	tb.AddNote("α=%g; completion round is bimodal (end of Phase 1 vs first Phase 2 round), both O(log n)", core.DefaultAlpha)
	return []*table.Table{tb}, nil
}

func runE2(o Options) ([]*table.Table, error) {
	const d = 8
	reps := repsFor(o)
	tb := table.New("E2: transmissions per node, d=8",
		"n", "4-choice tx/n", "push fixed tx/n", "push oracle-stop tx/n", "push&pull tx/n",
		"4choice/loglog", "pushfixed/log")
	master := xrand.New(o.Seed)
	var lln, fc, ln, pu []float64
	for _, n := range sizes(o) {
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
		pp, err := baseline.NewPushPull(n, 1)
		if err != nil {
			return nil, err
		}
		stFour, err := measure(o, g, four, master.Uint64(), reps)
		if err != nil {
			return nil, err
		}
		stPushFixed, err := measure(o, g, push, master.Uint64(), reps)
		if err != nil {
			return nil, err
		}
		stPushStop, err := measure(o, g, push, master.Uint64(), reps, regcast.WithStopEarly())
		if err != nil {
			return nil, err
		}
		stPP, err := measure(o, g, pp, master.Uint64(), reps)
		if err != nil {
			return nil, err
		}
		logN := math.Log2(float64(n))
		logLogN := math.Log2(logN)
		tb.AddRow(n, f1(stFour.MeanTxPerNode), f1(stPushFixed.MeanTxPerNode),
			f1(stPushStop.MeanTxPerNode), f1(stPP.MeanTxPerNode),
			f2(stFour.MeanTxPerNode/logLogN), f2(stPushFixed.MeanTxPerNode/logN))
		lln = append(lln, logLogN)
		fc = append(fc, stFour.MeanTxPerNode)
		ln = append(ln, logN)
		pu = append(pu, stPushFixed.MeanTxPerNode)
	}
	if fit, err := stats.FitLine(lln, fc); err == nil {
		if fit.Slope < 1 {
			tb.AddNote("4-choice tx/n is flat at ≈ %.1f across the sweep (⌈β·log log n⌉ is constant here): consistent with O(n·log log n), clearly below any c·log n growth", stats.Mean(fc))
		} else {
			tb.AddNote("4-choice tx/n ≈ %.1f·log log n + %.1f (R²=%.3f): the O(n log log n) shape", fit.Slope, fit.Intercept, fit.R2)
		}
	}
	if fit, err := stats.FitLine(ln, pu); err == nil {
		tb.AddNote("push (fixed schedule) tx/n ≈ %.2f·log n + %.1f (R²=%.3f): the Θ(n log n) baseline", fit.Slope, fit.Intercept, fit.R2)
	}
	tb.AddNote("like-for-like columns are '4-choice' and 'push fixed': both fixed-horizon Monte Carlo schedules, full cost counted")
	tb.AddNote("'push oracle-stop' halts the instant everyone is informed — global knowledge the phone call model does not provide (and still Θ(n·log n): ≈ ln n per node from the saturation tail)")

	budget, err := phaseBudgetTable(o, d)
	if err != nil {
		return nil, err
	}
	return []*table.Table{tb, budget}, nil
}

// phaseBudgetTable decomposes the four-choice transmission total by phase:
// the O(n·log log n) term is exactly the Phase 2 row, everything else is
// O(n).
func phaseBudgetTable(o Options, d int) (*table.Table, error) {
	n := 1 << 14
	if o.Quick {
		n = 1 << 11
	}
	master := xrand.New(o.Seed + 1)
	g, err := regular(n, d, master.Split())
	if err != nil {
		return nil, err
	}
	proto, err := core.NewAlgorithm1(n)
	if err != nil {
		return nil, err
	}
	res, perRound, err := o.runRounds(regcast.Static(g), proto, regcast.WithRNG(master.Split()))
	if err != nil {
		return nil, err
	}
	var perPhase [5]int64
	var rounds [5]int
	for _, rm := range perRound {
		ph := proto.Phase(rm.Round)
		perPhase[ph] += rm.Transmissions
		rounds[ph]++
	}
	tb := table.New(fmt.Sprintf("E2b: where the transmissions go (Algorithm 1, n=%d d=%d)", n, d),
		"phase", "role", "rounds", "tx", "tx/n", "asymptotic share")
	roles := []string{"", "newly informed push once", "all informed push (×4)", "single pull round", "active nodes push"}
	shares := []string{"", "O(n)", "O(n·log log n) — the headline term", "O(n)", "o(n)"}
	for ph := 1; ph <= 4; ph++ {
		tb.AddRow(ph, roles[ph], rounds[ph], perPhase[ph],
			f1(float64(perPhase[ph])/float64(n)), shares[ph])
	}
	tb.AddNote("total %.1f tx/node; Phase 1's cost is bounded by 4 per *informed* node no matter how long the phase lasts, and Phase 4 only moves if Phase 3 left stragglers", float64(res.Transmissions)/float64(n))
	return tb, nil
}

func runE3(o Options) ([]*table.Table, error) {
	reps := repsFor(o)
	tb := table.New("E3: Algorithm 2, d = ⌈log₂ n⌉",
		"n", "d", "rounds (mean)", "rounds/log2(n)", "tx/n", "tx/n/loglog", "completed")
	master := xrand.New(o.Seed)
	for _, n := range sizes(o) {
		d := int(math.Ceil(math.Log2(float64(n))))
		if (n*d)%2 != 0 {
			d++
		}
		g, err := regular(n, d, master.Split())
		if err != nil {
			return nil, err
		}
		proto, err := core.NewAlgorithm2(n)
		if err != nil {
			return nil, err
		}
		st, err := measure(o, g, proto, master.Uint64(), reps)
		if err != nil {
			return nil, err
		}
		logN := math.Log2(float64(n))
		logLogN := math.Log2(logN)
		tb.AddRow(n, d, f1(st.MeanRounds), f2(st.MeanRounds/logN),
			f1(st.MeanTxPerNode), f2(st.MeanTxPerNode/logLogN), pct(st.CompletedFrac))
	}
	tb.AddNote("Algorithm 2 replaces Phase 4 with an extended pull phase; both ratios should stay bounded as n grows")
	return []*table.Table{tb}, nil
}
