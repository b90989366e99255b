package graph

import (
	"math"
	"testing"
	"testing/quick"

	"regcast/internal/xrand"
)

// TestRandomRegularDiameterNearLogarithmic verifies the "small diameter"
// P2P property the paper's introduction relies on: random d-regular graphs
// have diameter ≈ log_{d-1} n (within a small additive/multiplicative
// band).
func TestRandomRegularDiameterNearLogarithmic(t *testing.T) {
	for _, tc := range []struct{ n, d int }{{512, 4}, {1024, 6}, {2048, 8}} {
		g, err := RandomRegular(tc.n, tc.d, xrand.New(uint64(tc.n)))
		if err != nil {
			t.Fatal(err)
		}
		diam, err := g.DiameterExact()
		if err != nil {
			t.Fatal(err)
		}
		ideal := math.Log(float64(tc.n)) / math.Log(float64(tc.d-1))
		if float64(diam) < ideal*0.8 {
			t.Errorf("G(%d,%d) diameter %d below the Moore-bound regime %.1f", tc.n, tc.d, diam, ideal)
		}
		if float64(diam) > ideal*2.5+4 {
			t.Errorf("G(%d,%d) diameter %d far above log_{d-1} n = %.1f", tc.n, tc.d, diam, ideal)
		}
	}
}

// TestEdgeCountConservation: for any mask, inner + cut + outer-inner edges
// must equal the total edge count.
func TestEdgeCountConservation(t *testing.T) {
	g, err := RandomRegular(200, 6, xrand.New(3))
	if err != nil {
		t.Fatal(err)
	}
	prop := func(bits []bool) bool {
		inSet := make([]bool, g.NumNodes())
		for i := range inSet {
			if len(bits) > 0 {
				inSet[i] = bits[i%len(bits)]
			}
		}
		outSet := make([]bool, g.NumNodes())
		for i := range outSet {
			outSet[i] = !inSet[i]
		}
		inner := g.EdgesWithin(inSet)
		outer := g.EdgesWithin(outSet)
		cut := g.EdgesBetween(inSet)
		cutRev := g.EdgesBetween(outSet)
		return cut == cutRev && inner+outer+cut == g.NumEdges()
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestNeighborsInSetSumsToCut: summing per-node cross-set stubs over the
// set gives exactly the cut size.
func TestNeighborsInSetSumsToCut(t *testing.T) {
	g, err := RandomRegular(100, 8, xrand.New(4))
	if err != nil {
		t.Fatal(err)
	}
	inSet := make([]bool, 100)
	rng := xrand.New(5)
	for i := range inSet {
		inSet[i] = rng.Bool(0.3)
	}
	outSet := make([]bool, 100)
	for i := range outSet {
		outSet[i] = !inSet[i]
	}
	sum := 0
	for v := 0; v < 100; v++ {
		if inSet[v] {
			sum += g.NeighborsInSet(v, outSet)
		}
	}
	if cut := g.EdgesBetween(inSet); sum != cut {
		t.Errorf("stub sum %d != cut %d", sum, cut)
	}
}

// TestConfigurationModelLoopAndMultiEdgeRates checks the classical pairing
// model expectations: E[self-loops] ≈ (d−1)/2, E[surplus multi-edges] ≈
// (d−1)²/4, independent of n.
func TestConfigurationModelLoopAndMultiEdgeRates(t *testing.T) {
	const n, d, reps = 2048, 6, 30
	var loops, multi float64
	for seed := uint64(0); seed < reps; seed++ {
		g, err := ConfigurationModel(n, d, xrand.New(seed))
		if err != nil {
			t.Fatal(err)
		}
		loops += float64(g.SelfLoopCount())
		multi += float64(g.MultiEdgeCount())
	}
	loops /= reps
	multi /= reps
	wantLoops := float64(d-1) / 2         // 2.5
	wantMulti := float64((d-1)*(d-1)) / 4 // 6.25
	if math.Abs(loops-wantLoops) > 1.2 {
		t.Errorf("mean self-loops %.2f, want ≈ %.2f", loops, wantLoops)
	}
	if math.Abs(multi-wantMulti) > 2.5 {
		t.Errorf("mean surplus multi-edges %.2f, want ≈ %.2f", multi, wantMulti)
	}
}

// TestGnpMatchesNaiveGenerator compares the geometric-skipping G(n,p)
// against a direct Bernoulli-per-pair construction statistically.
func TestGnpMatchesNaiveGenerator(t *testing.T) {
	const n, p, reps = 60, 0.2, 40
	want := p * float64(n*(n-1)) / 2
	var skipping float64
	for seed := uint64(0); seed < reps; seed++ {
		g, err := Gnp(n, p, xrand.New(seed))
		if err != nil {
			t.Fatal(err)
		}
		skipping += float64(g.NumEdges())
	}
	skipping /= reps
	sd := math.Sqrt(want * (1 - p))
	if math.Abs(skipping-want) > 4*sd/math.Sqrt(reps)+2 {
		t.Errorf("geometric-skipping G(n,p) mean edges %.1f, want ≈ %.1f", skipping, want)
	}
}

// TestHypercubeBipartite: Q_dim has no odd cycles; its BFS layers from any
// vertex 2-colour the graph.
func TestHypercubeBipartite(t *testing.T) {
	g, err := materialized(NewImplicitHypercube(5))
	if err != nil {
		t.Fatal(err)
	}
	dist := g.BFSDistances(0)
	for v := 0; v < g.NumNodes(); v++ {
		for _, w := range g.Neighbors(v) {
			if (dist[v]+dist[w])%2 == 0 {
				t.Fatalf("edge (%d,%d) within a BFS parity class", v, w)
			}
		}
	}
}

// TestCartesianProductDegreeSum: deg_{G□H}(u,x) = deg_G(u) + deg_H(x).
func TestCartesianProductDegreeSum(t *testing.T) {
	ring, err := Ring(7)
	if err != nil {
		t.Fatal(err)
	}
	k4, err := Complete(4)
	if err != nil {
		t.Fatal(err)
	}
	prod, err := CartesianProduct(ring, k4)
	if err != nil {
		t.Fatal(err)
	}
	if prod.NumNodes() != 28 {
		t.Fatalf("n = %d", prod.NumNodes())
	}
	if !prod.IsRegular(2 + 3) {
		t.Error("product not (2+3)-regular")
	}
	if prod.NumEdges() != 7*6+4*7 { // |E_G|·|V_H| + |E_H|·|V_G| = 7·4 + 6·7
		t.Errorf("product edges = %d, want %d", prod.NumEdges(), 7*4+6*7)
	}
}
