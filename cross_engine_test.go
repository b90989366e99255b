package regcast_test

import (
	"context"
	"fmt"
	"math"
	"testing"

	"regcast"
	"regcast/internal/baseline"
	"regcast/internal/core"
)

// The cross-engine check's constants are fixed before its first run: the
// rejection level, the relabelling count and every seed. None of them is
// tuned on an outcome.
const (
	crossRuns         = 30    // replications per engine and case
	crossRelabellings = 10000 // permutations per test
	crossAlpha        = 0.001 // two-sided rejection level
	crossGraphSeed    = 61
	crossSimSeed      = 62
	crossDaemonSeed   = 63
	crossPermSeed     = 64
)

// TestDaemonMatchesSimulator holds the daemon engine to the simulator: on
// one G(n, 6) per n, 30 stop-early runs of each engine from source 0 must
// not differ in mean completion round or in mean tx/node by a two-sample
// permutation test at p < 0.001. The daemon decides by the same protocol
// calls on the same start-of-round state, so only the random draws differ;
// a daemon with a schedule of its own (or its own accounting) fails.
func TestDaemonMatchesSimulator(t *testing.T) {
	if testing.Short() {
		t.Skip("runs 120 daemon clusters over loopback sockets")
	}
	if raceEnabled {
		t.Skip("runs 120 daemon clusters over loopback sockets; slow under -race")
	}
	perm := regcast.NewRand(crossPermSeed)
	for _, n := range []int{64, 256} {
		g, err := regcast.NewRegularGraph(n, 6, regcast.NewRand(crossGraphSeed))
		if err != nil {
			t.Fatal(err)
		}
		four, err := core.New(n, 6)
		if err != nil {
			t.Fatal(err)
		}
		pushPull, err := baseline.NewPushPull(n, 1)
		if err != nil {
			t.Fatal(err)
		}
		for _, proto := range []regcast.Protocol{four, pushPull} {
			t.Run(fmt.Sprintf("%s/n=%d", proto.Name(), n), func(t *testing.T) {
				sim := crossBatch(t, g, proto, crossSimSeed, regcast.NewRunner())
				daemon := crossBatch(t, g, proto, crossDaemonSeed, regcast.NewRunner(regcast.WithEngine(regcast.EngineDaemonTransport)))
				for i, res := range daemon {
					if res.TickTimeouts != 0 || res.Transport == nil || res.Transport.LedgerGap() != 0 {
						t.Fatalf("daemon run %d: %d tick timeouts, ledger %+v; want 0 and a balanced ledger", i, res.TickTimeouts, res.Transport)
					}
				}
				for _, m := range []struct {
					name string
					of   func(regcast.Result) float64
				}{
					{"FirstAllInformed", func(r regcast.Result) float64 { return float64(r.FirstAllInformed) }},
					{"tx/node", func(r regcast.Result) float64 { return float64(r.Transmissions) / float64(n) }},
				} {
					a, b := crossSample(sim, m.of), crossSample(daemon, m.of)
					p := permutationP(a, b, perm)
					t.Logf("%s: simulator mean %.3f, daemon mean %.3f, p = %.4f", m.name, crossMean(a), crossMean(b), p)
					if p < crossAlpha {
						t.Errorf("%s: simulator mean %.3f and daemon mean %.3f differ (p = %.4f < %g)", m.name, crossMean(a), crossMean(b), p, crossAlpha)
					}
				}
			})
		}
	}
}

// crossBatch runs crossRuns stop-early replications of proto on g from
// seed on runner and returns every run's result.
func crossBatch(t *testing.T, g *regcast.Graph, proto regcast.Protocol, seed uint64, runner regcast.Runner) []regcast.Result {
	t.Helper()
	sc, err := regcast.NewScenario(regcast.Static(g), proto, regcast.WithStopEarly(), regcast.WithSeed(seed))
	if err != nil {
		t.Fatal(err)
	}
	br, err := regcast.Batch{
		Scenario:           sc,
		Replications:       crossRuns,
		ReplicationWorkers: regcast.WorkersAuto,
		Runner:             runner,
		KeepResults:        true,
	}.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return br.Results
}

func crossSample(rs []regcast.Result, of func(regcast.Result) float64) []float64 {
	out := make([]float64, len(rs))
	for i, r := range rs {
		out[i] = of(r)
	}
	return out
}

func crossMean(xs []float64) float64 {
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// permutationP is the two-sided p-value of a two-sample permutation test on
// the difference of means: the share of crossRelabellings random
// relabellings of the pooled sample, counting the observed labelling once,
// whose |mean difference| reaches the observed one.
func permutationP(a, b []float64, rng *regcast.Rand) float64 {
	pooled := append(append([]float64(nil), a...), b...)
	observed := math.Abs(crossMean(a) - crossMean(b))
	hits := 1
	for i := 0; i < crossRelabellings; i++ {
		rng.Shuffle(len(pooled), func(i, j int) { pooled[i], pooled[j] = pooled[j], pooled[i] })
		if math.Abs(crossMean(pooled[:len(a)])-crossMean(pooled[len(a):])) >= observed-1e-9 {
			hits++
		}
	}
	return float64(hits) / float64(crossRelabellings+1)
}
