package mediancounter

import (
	"math"
	"testing"

	"regcast/internal/graph"
	"regcast/internal/xrand"
)

func testGraph(t *testing.T, n, d int, seed uint64) *graph.Graph {
	t.Helper()
	g, err := graph.RandomRegular(n, d, xrand.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestStateString(t *testing.T) {
	if StateA.String() != "A" || StateB.String() != "B" || StateC.String() != "C" {
		t.Error("state names wrong")
	}
	if State(9).String() == "" {
		t.Error("unknown state empty")
	}
}

func TestConfigValidation(t *testing.T) {
	g := testGraph(t, 32, 4, 1)
	rng := xrand.New(1)
	if _, err := Run(Config{RNG: rng}); err == nil {
		t.Error("nil graph accepted")
	}
	if _, err := Run(Config{Graph: g}); err == nil {
		t.Error("nil rng accepted")
	}
	if _, err := Run(Config{Graph: g, RNG: rng, Source: -1}); err == nil {
		t.Error("bad source accepted")
	}
}

func TestCompletesAndSelfTerminates(t *testing.T) {
	const n, d = 1 << 11, 8
	g := testGraph(t, n, d, 2)
	incomplete, noisy := 0, 0
	const reps = 5
	for seed := uint64(0); seed < reps; seed++ {
		res, err := Run(Config{Graph: g, Source: int(seed) * 7, RNG: xrand.New(seed)})
		if err != nil {
			t.Fatal(err)
		}
		if !res.AllInformed {
			incomplete++
		}
		if res.QuietAt < 0 {
			noisy++
		}
	}
	if incomplete > 0 {
		t.Errorf("incomplete in %d/%d runs", incomplete, reps)
	}
	if noisy > 0 {
		t.Errorf("did not self-terminate in %d/%d runs", noisy, reps)
	}
}

func TestQuietMeansNoMoreCost(t *testing.T) {
	// After going quiet the run must end: Rounds == QuietAt.
	g := testGraph(t, 512, 6, 3)
	res, err := Run(Config{Graph: g, RNG: xrand.New(4)})
	if err != nil {
		t.Fatal(err)
	}
	if res.QuietAt < 0 {
		t.Fatal("never went quiet")
	}
	if res.Rounds != res.QuietAt {
		t.Errorf("ran %d rounds but quiet at %d", res.Rounds, res.QuietAt)
	}
}

func TestSelfTerminationIsLogarithmicish(t *testing.T) {
	// Quiet time should scale like O(log n): ratio to log₂ n bounded.
	for _, n := range []int{512, 2048, 8192} {
		g := testGraph(t, n, 8, uint64(n))
		res, err := Run(Config{Graph: g, RNG: xrand.New(uint64(n) + 1)})
		if err != nil {
			t.Fatal(err)
		}
		if res.QuietAt < 0 {
			t.Fatalf("n=%d never quiet", n)
		}
		ratio := float64(res.QuietAt) / math.Log2(float64(n))
		if ratio > 6 {
			t.Errorf("n=%d quiet at %d rounds (%.1f·log n)", n, res.QuietAt, ratio)
		}
	}
}

func TestTransmissionsPerNodeModest(t *testing.T) {
	// The point of the counter: per-node cost tracks the Θ(log log n)
	// quiet period (≈ 2·(threshold + O(1)) with push+pull answers), well
	// below the ~1.7·log₂ n of a full-schedule push. At n = 2¹² the
	// threshold is 6, so anything above ~2.5× the push bound would mean
	// the quenching is broken; we also check the absolute budget.
	const n, d = 1 << 12, 8
	g := testGraph(t, n, d, 5)
	res, err := Run(Config{Graph: g, RNG: xrand.New(6)})
	if err != nil {
		t.Fatal(err)
	}
	if !res.AllInformed {
		t.Fatal("incomplete")
	}
	perNode := float64(res.Transmissions) / float64(n)
	threshold := math.Ceil(math.Log2(math.Log2(n))) + 2
	if perNode > 2*(threshold+4) {
		t.Errorf("median-counter used %.1f tx/node, budget 2·(threshold+4) = %.1f", perNode, 2*(threshold+4))
	}
	if perNode > 1.7*math.Log2(float64(n)) {
		t.Errorf("median-counter (%.1f tx/node) worse than full-schedule push", perNode)
	}
}

func TestMaxCounterBounded(t *testing.T) {
	g := testGraph(t, 1024, 8, 9)
	res, err := Run(Config{Graph: g, RNG: xrand.New(10)})
	if err != nil {
		t.Fatal(err)
	}
	wantMax := int(math.Ceil(2*math.Log2(math.Log2(1024)))) + 2
	if res.MaxCounter > wantMax {
		t.Errorf("MaxCounter %d exceeds threshold %d", res.MaxCounter, wantMax)
	}
	if res.MaxCounter < 1 {
		t.Error("MaxCounter never recorded")
	}
}

func TestDeterministicGivenSeed(t *testing.T) {
	g := testGraph(t, 512, 6, 11)
	a, err := Run(Config{Graph: g, RNG: xrand.New(12)})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(Config{Graph: g, RNG: xrand.New(12)})
	if err != nil {
		t.Fatal(err)
	}
	if a.Transmissions != b.Transmissions || a.QuietAt != b.QuietAt || a.Informed != b.Informed {
		t.Errorf("non-deterministic: %+v vs %+v", a, b)
	}
}
