package spectral

import (
	"math"
	"testing"

	"regcast/internal/graph"
	"regcast/internal/xrand"
)

func TestSecondEigenvalueCompleteGraph(t *testing.T) {
	// K_n has eigenvalues n-1 (once) and -1 (n-1 times), so |λ₂| = 1.
	g, err := graph.Complete(20)
	if err != nil {
		t.Fatal(err)
	}
	l2, err := SecondEigenvalue(g, 300, xrand.New(1))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(l2-1) > 0.01 {
		t.Errorf("K20 |λ₂| = %v, want 1", l2)
	}
}

func TestSecondEigenvalueCycle(t *testing.T) {
	// C_n has eigenvalues 2·cos(2πk/n). For odd n the largest non-trivial
	// magnitude is |2·cos(π(n−1)/n)| = 2·cos(π/n), attained near the
	// bottom of the spectrum (even cycles are bipartite with λ = −2).
	const n = 25
	g, err := graph.Ring(n)
	if err != nil {
		t.Fatal(err)
	}
	want := 2 * math.Cos(math.Pi/n)
	l2, err := SecondEigenvalue(g, 2000, xrand.New(2))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(l2-want) > 0.02 {
		t.Errorf("C%d |λ₂| = %v, want %v", n, l2, want)
	}
}

func TestSecondEigenvalueBipartite(t *testing.T) {
	// Even cycles are bipartite: the most negative eigenvalue is -2, so the
	// magnitude estimate tends to 2·|cos(...)| close to 2; more simply, the
	// hypercube Q3 is bipartite 3-regular with spectrum {±3, ±1}: |λ₂|=3
	// is the bipartite reflection. Power iteration on 1⊥ must find 3.
	h, err := graph.NewImplicitHypercube(3)
	if err != nil {
		t.Fatal(err)
	}
	g, err := graph.Materialize(h)
	if err != nil {
		t.Fatal(err)
	}
	l2, err := SecondEigenvalue(g, 500, xrand.New(3))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(l2-3) > 0.05 {
		t.Errorf("Q3 |λ₂| = %v, want 3 (bipartite -d eigenvalue)", l2)
	}
}

func TestSecondEigenvalueRandomRegularNearFriedman(t *testing.T) {
	// Friedman: |λ₂| ≤ 2√(d−1)(1+o(1)) w.h.p. Allow 25% slack at n=500.
	const n, d = 500, 6
	g, err := graph.RandomRegular(n, d, xrand.New(4))
	if err != nil {
		t.Fatal(err)
	}
	l2, err := SecondEigenvalue(g, 300, xrand.New(5))
	if err != nil {
		t.Fatal(err)
	}
	bound := AlonBoppanaBound(d)
	if l2 > bound*1.25 {
		t.Errorf("G(%d,%d) |λ₂| = %v exceeds 1.25×2√(d−1) = %v", n, d, l2, bound*1.25)
	}
	// Alon-Boppana also lower-bounds λ₂ asymptotically; sanity: not tiny.
	if l2 < bound*0.6 {
		t.Errorf("G(%d,%d) |λ₂| = %v implausibly small (bound %v)", n, d, l2, bound)
	}
}

func TestSecondEigenvalueErrors(t *testing.T) {
	g, err := graph.Complete(2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := SecondEigenvalue(g, 0, xrand.New(1)); err == nil {
		t.Error("iters=0 accepted")
	}
	one, err := graph.Complete(1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := SecondEigenvalue(one, 10, xrand.New(1)); err == nil {
		t.Error("n=1 accepted")
	}
}

func TestAlonBoppanaBound(t *testing.T) {
	if b := AlonBoppanaBound(5); math.Abs(b-4) > 1e-12 {
		t.Errorf("AlonBoppana(5) = %v, want 4", b)
	}
	if AlonBoppanaBound(0) != 0 {
		t.Error("AlonBoppana(0) != 0")
	}
}

func TestCheckMixingOnRandomRegular(t *testing.T) {
	const n, d = 400, 8
	g, err := graph.RandomRegular(n, d, xrand.New(6))
	if err != nil {
		t.Fatal(err)
	}
	l2, err := SecondEigenvalue(g, 300, xrand.New(7))
	if err != nil {
		t.Fatal(err)
	}
	// The mixing lemma holds with the true λ₂; give the estimate 10% slack.
	rep, err := CheckMixing(g, d, l2*1.1, 200, xrand.New(8))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Violations != 0 {
		t.Errorf("mixing lemma violated %d/%d times (maxdev %v, λ %v)",
			rep.Violations, rep.Trials, rep.MaxDeviation, l2)
	}
	if rep.MaxDeviation <= 0 {
		t.Error("max deviation should be positive")
	}
}

func TestCheckMixingDetectsBadLambda(t *testing.T) {
	const n, d = 200, 6
	g, err := graph.RandomRegular(n, d, xrand.New(9))
	if err != nil {
		t.Fatal(err)
	}
	// λ = 0 must be violated by essentially every sampled set.
	rep, err := CheckMixing(g, d, 0, 50, xrand.New(10))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Violations == 0 {
		t.Error("λ=0 reported as satisfying the mixing lemma")
	}
}

func TestCheckMixingErrors(t *testing.T) {
	g, err := graph.Complete(3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := CheckMixing(g, 2, 1, 10, xrand.New(1)); err == nil {
		t.Error("tiny graph accepted")
	}
	big, err := graph.Complete(10)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := CheckMixing(big, 9, 1, 0, xrand.New(1)); err == nil {
		t.Error("trials=0 accepted")
	}
}
