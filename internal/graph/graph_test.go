package graph

import (
	"math"
	"testing"
	"testing/quick"

	"regcast/internal/xrand"
)

func mustRing(t *testing.T, n int) *Graph {
	t.Helper()
	g, err := Ring(n)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestNewFromEdgesBasic(t *testing.T) {
	g, err := NewFromEdges(3, [][2]int32{{0, 1}, {1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 3 || g.NumEdges() != 2 {
		t.Fatalf("n=%d m=%d", g.NumNodes(), g.NumEdges())
	}
	if g.Degree(0) != 1 || g.Degree(1) != 2 || g.Degree(2) != 1 {
		t.Fatalf("degrees %d %d %d", g.Degree(0), g.Degree(1), g.Degree(2))
	}
}

func TestNewFromEdgesRejectsOutOfRange(t *testing.T) {
	if _, err := NewFromEdges(2, [][2]int32{{0, 2}}); err == nil {
		t.Error("out-of-range endpoint accepted")
	}
	if _, err := NewFromEdges(2, [][2]int32{{-1, 0}}); err == nil {
		t.Error("negative endpoint accepted")
	}
}

func TestSelfLoopDegree(t *testing.T) {
	g, err := NewFromEdges(2, [][2]int32{{0, 0}, {0, 1}})
	if err != nil {
		t.Fatal(err)
	}
	if g.Degree(0) != 3 { // self-loop contributes 2
		t.Errorf("Degree(0) = %d, want 3", g.Degree(0))
	}
	if g.SelfLoopCount() != 1 {
		t.Errorf("SelfLoopCount = %d", g.SelfLoopCount())
	}
	if g.IsSimple() {
		t.Error("graph with loop reported simple")
	}
}

func TestMultiEdgeCount(t *testing.T) {
	g, err := NewFromEdges(2, [][2]int32{{0, 1}, {0, 1}, {0, 1}})
	if err != nil {
		t.Fatal(err)
	}
	if g.MultiEdgeCount() != 2 {
		t.Errorf("MultiEdgeCount = %d, want 2", g.MultiEdgeCount())
	}
}

func TestRingProperties(t *testing.T) {
	g := mustRing(t, 10)
	if !g.IsRegular(2) {
		t.Error("ring not 2-regular")
	}
	if !g.IsConnected() {
		t.Error("ring not connected")
	}
	d, err := g.DiameterExact()
	if err != nil {
		t.Fatal(err)
	}
	if d != 5 {
		t.Errorf("C10 diameter = %d, want 5", d)
	}
}

func TestCompleteProperties(t *testing.T) {
	g, err := Complete(6)
	if err != nil {
		t.Fatal(err)
	}
	if !g.IsRegular(5) || g.NumEdges() != 15 {
		t.Errorf("K6 wrong: deg0=%d m=%d", g.Degree(0), g.NumEdges())
	}
	d, _ := g.DiameterExact()
	if d != 1 {
		t.Errorf("K6 diameter = %d", d)
	}
}

func TestHypercube(t *testing.T) {
	g, err := materialized(NewImplicitHypercube(4))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 16 || !g.IsRegular(4) {
		t.Fatalf("Q4 wrong: n=%d", g.NumNodes())
	}
	d, _ := g.DiameterExact()
	if d != 4 {
		t.Errorf("Q4 diameter = %d, want 4", d)
	}
	if _, err := materialized(NewImplicitHypercube(0)); err == nil {
		t.Error("dim 0 accepted")
	}
}

func TestTorus(t *testing.T) {
	g, err := materialized(NewImplicitTorus(4, 5))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 20 || !g.IsRegular(4) {
		t.Fatal("torus wrong shape")
	}
	if !g.IsConnected() {
		t.Error("torus disconnected")
	}
	if _, err := materialized(NewImplicitTorus(2, 5)); err == nil {
		t.Error("degenerate torus accepted")
	}
}

func TestBFSDistances(t *testing.T) {
	g := mustRing(t, 6)
	dist := g.BFSDistances(0)
	want := []int32{0, 1, 2, 3, 2, 1}
	for i, w := range want {
		if dist[i] != w {
			t.Errorf("dist[%d] = %d, want %d", i, dist[i], w)
		}
	}
}

func TestBFSUnreachable(t *testing.T) {
	g, err := NewFromEdges(3, [][2]int32{{0, 1}})
	if err != nil {
		t.Fatal(err)
	}
	dist := g.BFSDistances(0)
	if dist[2] != -1 {
		t.Errorf("unreachable node distance %d", dist[2])
	}
	if _, err := g.DiameterExact(); err == nil {
		t.Error("diameter of disconnected graph accepted")
	}
}

func TestEdgesBetweenAndWithin(t *testing.T) {
	g := mustRing(t, 6)
	inSet := []bool{true, true, true, false, false, false}
	if cut := g.EdgesBetween(inSet); cut != 2 {
		t.Errorf("cut = %d, want 2", cut)
	}
	if inner := g.EdgesWithin(inSet); inner != 2 {
		t.Errorf("inner = %d, want 2", inner)
	}
	if c := g.NeighborsInSet(0, inSet); c != 1 {
		t.Errorf("NeighborsInSet(0) = %d", c)
	}
}

func TestConfigurationModelDegrees(t *testing.T) {
	rng := xrand.New(1)
	g, err := ConfigurationModel(100, 6, rng)
	if err != nil {
		t.Fatal(err)
	}
	if !g.IsRegular(6) {
		t.Error("configuration model not 6-regular (stub count must be exact)")
	}
	if g.NumEdges() != 300 {
		t.Errorf("m = %d, want 300", g.NumEdges())
	}
}

func TestConfigurationModelRejectsOddStubs(t *testing.T) {
	if _, err := ConfigurationModel(5, 3, xrand.New(1)); err == nil {
		t.Error("odd n*d accepted")
	}
	if _, err := ConfigurationModel(5, 5, xrand.New(1)); err == nil {
		t.Error("d >= n accepted")
	}
	if _, err := ConfigurationModel(0, 2, xrand.New(1)); err == nil {
		t.Error("n=0 accepted")
	}
}

func TestRandomRegularSimpleAndRegular(t *testing.T) {
	rng := xrand.New(7)
	for _, tc := range []struct{ n, d int }{{50, 3}, {100, 4}, {64, 8}, {200, 12}} {
		g, err := RandomRegular(tc.n, tc.d, rng)
		if err != nil {
			t.Fatal(err)
		}
		if !g.IsRegular(tc.d) {
			t.Errorf("n=%d d=%d not regular", tc.n, tc.d)
		}
		if !g.IsSimple() {
			t.Errorf("n=%d d=%d not simple", tc.n, tc.d)
		}
	}
}

func TestRandomRegularConnectedWHP(t *testing.T) {
	// Random d-regular graphs with d >= 3 are connected w.h.p.; across 10
	// seeds at n=200, d=4 a disconnection would be extraordinary.
	for seed := uint64(0); seed < 10; seed++ {
		g, err := RandomRegular(200, 4, xrand.New(seed))
		if err != nil {
			t.Fatal(err)
		}
		if !g.IsConnected() {
			t.Fatalf("seed %d: disconnected G(200,4)", seed)
		}
	}
}

func TestRandomRegularDeterministic(t *testing.T) {
	g1, err := RandomRegular(60, 4, xrand.New(9))
	if err != nil {
		t.Fatal(err)
	}
	g2, err := RandomRegular(60, 4, xrand.New(9))
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < 60; v++ {
		n1, n2 := g1.Neighbors(v), g2.Neighbors(v)
		if len(n1) != len(n2) {
			t.Fatal("degree mismatch")
		}
		for i := range n1 {
			if n1[i] != n2[i] {
				t.Fatalf("node %d neighbour %d differs", v, i)
			}
		}
	}
}

func TestErasedConfigurationModel(t *testing.T) {
	g, err := ErasedConfigurationModel(100, 6, xrand.New(3))
	if err != nil {
		t.Fatal(err)
	}
	if !g.IsSimple() {
		t.Error("erased model produced non-simple graph")
	}
	for v := 0; v < g.NumNodes(); v++ {
		if g.Degree(v) > 6 {
			t.Errorf("erased model node %d has degree %d > 6", v, g.Degree(v))
		}
	}
}

func TestGnpEdgeCases(t *testing.T) {
	g, err := Gnp(10, 0, xrand.New(1))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 0 {
		t.Errorf("Gnp(p=0) m=%d", g.NumEdges())
	}
	g, err = Gnp(10, 1, xrand.New(1))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 45 {
		t.Errorf("Gnp(p=1) m=%d, want 45", g.NumEdges())
	}
	if _, err := Gnp(10, 1.5, xrand.New(1)); err == nil {
		t.Error("p>1 accepted")
	}
	if _, err := Gnp(10, math.NaN(), xrand.New(1)); err == nil {
		t.Error("p=NaN accepted")
	}
	if _, err := Gnp(-1, 0.5, xrand.New(1)); err == nil {
		t.Error("n<0 accepted")
	}
}

func TestGnpEdgeCountConcentration(t *testing.T) {
	const n, p = 300, 0.05
	want := p * float64(n) * float64(n-1) / 2
	sum := 0.0
	const reps = 20
	for seed := uint64(0); seed < reps; seed++ {
		g, err := Gnp(n, p, xrand.New(seed))
		if err != nil {
			t.Fatal(err)
		}
		if !g.IsSimple() {
			t.Fatal("Gnp produced non-simple graph")
		}
		sum += float64(g.NumEdges())
	}
	mean := sum / reps
	if mean < want*0.9 || mean > want*1.1 {
		t.Errorf("Gnp mean edges %v, want about %v", mean, want)
	}
}

func TestCartesianProductWithK5(t *testing.T) {
	// The paper's §5 example: G(n,d) □ K5 is (d+4)-regular on 5n nodes.
	g, err := RandomRegular(20, 3, xrand.New(5))
	if err != nil {
		t.Fatal(err)
	}
	k5, err := Complete(5)
	if err != nil {
		t.Fatal(err)
	}
	prod, err := CartesianProduct(g, k5)
	if err != nil {
		t.Fatal(err)
	}
	if prod.NumNodes() != 100 || !prod.IsRegular(7) {
		t.Fatalf("product n=%d regular7=%v", prod.NumNodes(), prod.IsRegular(7))
	}
	if !prod.IsConnected() {
		t.Error("product disconnected")
	}
}

func TestCartesianProductRejectsNonSimple(t *testing.T) {
	loop, err := NewFromEdges(1, [][2]int32{{0, 0}})
	if err != nil {
		t.Fatal(err)
	}
	k2, err := Complete(2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := CartesianProduct(loop, k2); err == nil {
		t.Error("non-simple factor accepted")
	}
}

func TestConfigurationModelStubUniformityProperty(t *testing.T) {
	// Property: for any valid (n, d, seed) the pairing model yields an exactly
	// d-regular multigraph with nd/2 edges.
	prop := func(seed uint64, nRaw, dRaw uint8) bool {
		n := int(nRaw%60) + 8
		d := int(dRaw%5) + 2
		if n*d%2 != 0 {
			n++
		}
		g, err := ConfigurationModel(n, d, xrand.New(seed))
		if err != nil {
			return false
		}
		return g.IsRegular(d) && g.NumEdges() == n*d/2
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
