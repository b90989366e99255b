package graph

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"regcast/internal/xrand"
)

// This file pins the direct-to-CSR generator builds to the historical
// edge-list derivations: for every seed, the new build paths must produce
// element-identical graphs AND leave the generator in the same stream
// position, so nothing downstream of a generator call (scenario seeding,
// experiment tables, goldens) can shift. The map-based structural census
// the report used to run lives here too, as the oracle for its stamp-array
// replacement.

// refRandomRegular is the historical RandomRegular: every pass keeps the
// accepted edges in a map beside an edge list and replays the list
// through NewFromEdges. It also reports how many passes got stuck.
func refRandomRegular(n, d int, rng *xrand.Rand) (g *Graph, restarts int, err error) {
	if err := checkRegularParams(n, d); err != nil {
		return nil, 0, err
	}
	const maxRestarts = 1000
	for attempt := 0; attempt < maxRestarts; attempt++ {
		g, ok := refTryStegerWormald(n, d, rng)
		if ok {
			return g, attempt, nil
		}
	}
	return nil, maxRestarts, fmt.Errorf("graph: refRandomRegular(n=%d, d=%d) failed after %d restarts", n, d, maxRestarts)
}

func refTryStegerWormald(n, d int, rng *xrand.Rand) (*Graph, bool) {
	unmatched := make([]int32, n*d)
	for i := range unmatched {
		unmatched[i] = int32(i)
	}
	adjSet := make(map[int64]struct{}, n*d/2)
	edgeKey := func(a, b int32) int64 {
		if a > b {
			a, b = b, a
		}
		return int64(a)<<32 | int64(b)
	}
	edges := make([][2]int32, 0, n*d/2)
	retryBudget := 50*n*d + 1000
	for len(unmatched) > 0 {
		i := rng.IntN(len(unmatched))
		j := rng.IntN(len(unmatched))
		if i == j {
			continue
		}
		su, sv := unmatched[i], unmatched[j]
		u, v := su/int32(d), sv/int32(d)
		if u == v {
			retryBudget--
			if retryBudget <= 0 {
				return nil, false
			}
			continue
		}
		if _, dup := adjSet[edgeKey(u, v)]; dup {
			retryBudget--
			if retryBudget <= 0 {
				return nil, false
			}
			continue
		}
		adjSet[edgeKey(u, v)] = struct{}{}
		edges = append(edges, [2]int32{u, v})
		if i < j {
			i, j = j, i
		}
		unmatched[i] = unmatched[len(unmatched)-1]
		unmatched = unmatched[:len(unmatched)-1]
		unmatched[j] = unmatched[len(unmatched)-1]
		unmatched = unmatched[:len(unmatched)-1]
	}
	g, err := NewFromEdges(n, edges)
	if err != nil {
		return nil, false
	}
	return g, true
}

// refMultiEdgeCount is the historical map-based surplus-edge census.
func refMultiEdgeCount(g *Graph) int {
	surplus := 0
	seen := make(map[int64]int)
	n := g.NumNodes()
	for v := 0; v < n; v++ {
		for _, w := range g.Neighbors(v) {
			if int(w) <= v {
				continue
			}
			seen[int64(v)<<32|int64(w)]++
		}
	}
	for _, k := range seen {
		if k >= 2 {
			surplus += k - 1
		}
	}
	return surplus
}

// refConfigurationModel is the historical edge-list ConfigurationModel.
func refConfigurationModel(n, d int, rng *xrand.Rand) (*Graph, error) {
	if err := checkRegularParams(n, d); err != nil {
		return nil, err
	}
	stubs := make([]int32, n*d)
	for i := range stubs {
		stubs[i] = int32(i / d)
	}
	rng.Shuffle(len(stubs), func(i, j int) { stubs[i], stubs[j] = stubs[j], stubs[i] })
	edges := make([][2]int32, 0, n*d/2)
	for i := 0; i < len(stubs); i += 2 {
		edges = append(edges, [2]int32{stubs[i], stubs[i+1]})
	}
	return NewFromEdges(n, edges)
}

// refErased is the historical map-based erasure over a multigraph.
func refErased(g *Graph, n int) (*Graph, error) {
	type pair struct{ a, b int32 }
	seen := make(map[pair]struct{})
	var edges [][2]int32
	for v := 0; v < n; v++ {
		for _, w := range g.Neighbors(v) {
			if int(w) <= v {
				continue
			}
			p := pair{int32(v), w}
			if _, dup := seen[p]; dup {
				continue
			}
			seen[p] = struct{}{}
			edges = append(edges, [2]int32{int32(v), w})
		}
	}
	return NewFromEdges(n, edges)
}

// refGnp is the historical edge-list G(n,p) build.
func refGnp(n int, p float64, rng *xrand.Rand) (*Graph, error) {
	var edges [][2]int32
	if p > 0 {
		if p == 1 {
			for v := 0; v < n; v++ {
				for w := v + 1; w < n; w++ {
					edges = append(edges, [2]int32{int32(v), int32(w)})
				}
			}
		} else {
			gnpWalk(n, p, rng, func(v, w int32) {
				edges = append(edges, [2]int32{v, w})
			})
		}
	}
	return NewFromEdges(n, edges)
}

// sameGraph fails unless a and b have identical CSR contents.
func sameGraph(t *testing.T, label string, a, b *Graph) {
	t.Helper()
	ao, aa := a.CSR()
	bo, ba := b.CSR()
	if len(ao) != len(bo) || len(aa) != len(ba) {
		t.Fatalf("%s: CSR shapes differ: %d/%d offsets, %d/%d adj", label, len(ao), len(bo), len(aa), len(ba))
	}
	for i := range ao {
		if ao[i] != bo[i] {
			t.Fatalf("%s: offsets[%d] = %d vs %d", label, i, ao[i], bo[i])
		}
	}
	for i := range aa {
		if aa[i] != ba[i] {
			t.Fatalf("%s: adj[%d] = %d vs %d", label, i, aa[i], ba[i])
		}
	}
}

// sameStream fails unless both generators draw the same next word.
func sameStream(t *testing.T, label string, a, b *xrand.Rand) {
	t.Helper()
	if a.Uint64() != b.Uint64() {
		t.Fatalf("%s: generator stream positions diverged", label)
	}
}

// TestRandomRegularMatchesMapBuild pins the map-free, batched
// Steger–Wormald build to the historical one. The complete graphs
// (d = n-1) fill every row to the brim and never get stuck; (8,6), (10,8)
// and (12,10) get stuck and restart on most seeds, so the identity covers
// the reuse of the work arrays across passes too. (1000,6) and (257,8) run
// many full batches and end on a partial one (3000 and 1028 pairs against
// batches of 16); the sweep must have rolled batches back both mid-batch
// and for a stub paired with itself, or the replay is not covered.
func TestRandomRegularMatchesMapBuild(t *testing.T) {
	shapes := [][2]int{{4, 3}, {8, 6}, {10, 8}, {12, 10}, {17, 16}, {64, 63}, {256, 3}, {1000, 6}, {257, 8}, {4096, 16}, {2048, 64}}
	restarts := 0
	midBatch, sameStub := countSWRollbacks(func() {
		for seed := uint64(1); seed <= 20; seed++ {
			for _, nd := range shapes {
				n, d := nd[0], nd[1]
				ra, rb := xrand.New(seed), xrand.New(seed)
				got, err := RandomRegular(n, d, ra)
				if err != nil {
					t.Fatal(err)
				}
				want, stuck, err := refRandomRegular(n, d, rb)
				if err != nil {
					t.Fatal(err)
				}
				restarts += stuck
				label := fmt.Sprintf("random-regular seed=%d n=%d d=%d", seed, n, d)
				sameGraph(t, label, got, want)
				sameStream(t, label, ra, rb)
			}
		}
	})
	if restarts < 100 {
		t.Fatalf("only %d restarts in the sweep: the restart path is not covered", restarts)
	}
	if midBatch < 100 || sameStub < 100 {
		t.Fatalf("%d mid-batch and %d same-stub rollbacks in the sweep: the replay is not covered", midBatch, sameStub)
	}
	t.Logf("%d restarts, %d mid-batch rollbacks, %d same-stub rollbacks", restarts, midBatch, sameStub)
}

func TestRegularGeneratorsRejectInt32Overflow(t *testing.T) {
	gens := []struct {
		name string
		gen  func(n, d int, rng *xrand.Rand) (*Graph, error)
	}{
		{"ConfigurationModel", ConfigurationModel},
		{"RandomRegular", RandomRegular},
	}
	for _, tc := range gens {
		// 2^32 stubs: the arrays would take 32 GiB, so an error that comes
		// back at all came back before anything was allocated.
		g, err := tc.gen(1<<27, 32, xrand.New(1))
		if err == nil || g != nil {
			t.Errorf("%s(1<<27, 32) = %v, %v; want the int32 range error", tc.name, g, err)
		}
	}
}

func TestMultiEdgeCountMatchesMapCensus(t *testing.T) {
	for seed := uint64(1); seed <= 20; seed++ {
		for _, n := range []int{4, 16, 256} {
			for _, d := range []int{2, 4, 16} {
				if d >= n {
					continue
				}
				g, err := ConfigurationModel(n, d, xrand.New(seed))
				if err != nil {
					t.Fatal(err)
				}
				if got, want := g.MultiEdgeCount(), refMultiEdgeCount(g); got != want {
					t.Fatalf("seed=%d n=%d d=%d: MultiEdgeCount = %d, map census %d", seed, n, d, got, want)
				}
			}
		}
	}
	// A triple edge {0,1}, a self-loop at 2 and a double edge {2,3}.
	g, err := NewFromEdges(4, [][2]int32{{0, 1}, {1, 0}, {0, 1}, {2, 2}, {2, 3}, {3, 2}, {1, 3}})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := g.MultiEdgeCount(), refMultiEdgeCount(g); got != 3 || want != 3 {
		t.Fatalf("hand-built multigraph: MultiEdgeCount = %d, map census %d, want 3", got, want)
	}
	if g.SelfLoopCount() != 1 || g.IsSimple() {
		t.Fatalf("hand-built multigraph: loops = %d, simple = %v", g.SelfLoopCount(), g.IsSimple())
	}
}

func TestIsConnectedMatchesComponentCount(t *testing.T) {
	const n = 512
	threshold := math.Log(n) / n
	connected, disconnected := 0, 0
	for seed := uint64(1); seed <= 20; seed++ {
		for _, factor := range []float64{0.3, 0.9, 1.1, 3} {
			g, err := Gnp(n, factor*threshold, xrand.New(seed))
			if err != nil {
				t.Fatal(err)
			}
			_, count := g.ConnectedComponents()
			if got := g.IsConnected(); got != (count == 1) {
				t.Fatalf("seed=%d p=%.2f·ln n/n: IsConnected = %v with %d components", seed, factor, got, count)
			}
			if count == 1 {
				connected++
			} else {
				disconnected++
			}
		}
	}
	if connected == 0 || disconnected == 0 {
		t.Fatalf("sweep is one-sided: %d connected, %d disconnected samples", connected, disconnected)
	}
}

func TestConfigurationModelMatchesEdgeListBuild(t *testing.T) {
	for seed := uint64(1); seed <= 20; seed++ {
		for _, nd := range [][2]int{{16, 4}, {64, 8}, {101, 6}, {256, 3}} {
			n, d := nd[0], nd[1]
			if n*d%2 != 0 {
				continue
			}
			ra, rb := xrand.New(seed), xrand.New(seed)
			got, err := ConfigurationModel(n, d, ra)
			if err != nil {
				t.Fatal(err)
			}
			want, err := refConfigurationModel(n, d, rb)
			if err != nil {
				t.Fatal(err)
			}
			label := fmt.Sprintf("config-model seed=%d n=%d d=%d", seed, n, d)
			sameGraph(t, label, got, want)
			sameStream(t, label, ra, rb)
		}
	}
}

// TestConfigurationModelAllocBudget guards the build's footprint: the
// stubs, the adjacency and the offsets, each allocated once, and nothing
// more but a small slack (the Graph, the shuffle's closure, size-class
// rounding). An n-entry cursor array beside the offsets, which the fill
// borrows, would break it.
func TestConfigurationModelAllocBudget(t *testing.T) {
	const n, d = 131072, 16
	const budget = 4*n*d + 4*n*d + 4*(n+1)
	const slack = 64 << 10
	var before, after runtime.MemStats
	const runs = 4
	runtime.ReadMemStats(&before)
	for seed := uint64(1); seed <= runs; seed++ {
		if _, err := ConfigurationModel(n, d, xrand.New(seed)); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	perBuild := (after.TotalAlloc - before.TotalAlloc) / runs
	t.Logf("ConfigurationModel(%d, %d) allocates %d B; arrays %d B, slack %d B", n, d, perBuild, budget, slack)
	if perBuild > budget+slack {
		t.Fatalf("ConfigurationModel(%d, %d) allocates %d B, want <= %d (arrays) + %d (slack)", n, d, perBuild, budget, slack)
	}
}

func TestErasedConfigurationModelMatchesMapBuild(t *testing.T) {
	for seed := uint64(1); seed <= 20; seed++ {
		n, d := 128, 8
		ra, rb := xrand.New(seed), xrand.New(seed)
		got, err := ErasedConfigurationModel(n, d, ra)
		if err != nil {
			t.Fatal(err)
		}
		multi, err := refConfigurationModel(n, d, rb)
		if err != nil {
			t.Fatal(err)
		}
		want, err := refErased(multi, n)
		if err != nil {
			t.Fatal(err)
		}
		label := fmt.Sprintf("erased seed=%d", seed)
		sameGraph(t, label, got, want)
		sameStream(t, label, ra, rb)
		if !got.IsSimple() {
			t.Fatalf("%s: erased graph not simple", label)
		}
	}
}

func TestGnpMatchesEdgeListBuild(t *testing.T) {
	for seed := uint64(1); seed <= 20; seed++ {
		for _, p := range []float64{0, 0.01, 0.1, 0.6, 1} {
			for _, n := range []int{0, 1, 2, 33, 128} {
				ra, rb := xrand.New(seed), xrand.New(seed)
				got, err := Gnp(n, p, ra)
				if err != nil {
					t.Fatal(err)
				}
				want, err := refGnp(n, p, rb)
				if err != nil {
					t.Fatal(err)
				}
				label := fmt.Sprintf("gnp seed=%d n=%d p=%v", seed, n, p)
				sameGraph(t, label, got, want)
				sameStream(t, label, ra, rb)
			}
		}
	}
}

// pairCount is the brute-force census: every unordered pair's multiplicity
// in a map (a loop's from its two entries in its own row), then loops and
// surplus copies read off it; thickest is the largest multiplicity of a
// proper edge.
func pairCount(g *Graph) (c rowCounts, thickest int) {
	pairs := make(map[[2]int32]int)
	for v := 0; v < g.NumNodes(); v++ {
		for _, w := range g.Neighbors(v) {
			if int(w) >= v {
				pairs[[2]int32{int32(v), w}]++
			}
		}
	}
	for p, k := range pairs {
		if p[0] == p[1] {
			c.loops += k / 2
		} else {
			c.surplus += k - 1
			thickest = max(thickest, k)
		}
	}
	return c, thickest
}

// TestRowCensusMatchesPairCount checks the one row census behind
// SelfLoopCount, MultiEdgeCount and IsSimple against the pair map, on
// pairings small and dense enough to be full of loops, double and triple
// edges, and on hand-built rows.
func TestRowCensusMatchesPairCount(t *testing.T) {
	check := func(label string, g *Graph, want rowCounts) {
		t.Helper()
		if got := g.rowCensus(); got != want {
			t.Fatalf("%s: row census %+v, pair map %+v", label, got, want)
		}
		if g.SelfLoopCount() != want.loops || g.MultiEdgeCount() != want.surplus || g.IsSimple() != (want == rowCounts{}) {
			t.Fatalf("%s: loops %d surplus %d simple %v disagree with the census %+v",
				label, g.SelfLoopCount(), g.MultiEdgeCount(), g.IsSimple(), want)
		}
	}
	var seen rowCounts
	thickest := 0
	for seed := uint64(1); seed <= 200; seed++ {
		for _, n := range []int{8, 50} {
			for _, d := range []int{6, 12} {
				if d >= n {
					continue // the pairing model wants d < n
				}
				g, err := ConfigurationModel(n, d, xrand.New(seed))
				if err != nil {
					t.Fatal(err)
				}
				want, k := pairCount(g)
				check(fmt.Sprintf("seed=%d n=%d d=%d", seed, n, d), g, want)
				seen.loops += want.loops
				seen.surplus += want.surplus
				thickest = max(thickest, k)
				if ref := refMultiEdgeCount(g); want.surplus != ref {
					t.Fatalf("seed=%d n=%d d=%d: pair map counts %d surplus edges, the map census %d", seed, n, d, want.surplus, ref)
				}
			}
		}
	}
	if seen.loops == 0 || seen.surplus == 0 || thickest < 3 {
		t.Fatalf("vacuous: %d loops, %d surplus edges, no edge thicker than %d-fold over the pairings", seen.loops, seen.surplus, thickest)
	}

	for _, tc := range []struct {
		name  string
		n     int
		edges [][2]int32
		want  rowCounts
	}{
		{"double self-loop", 3, [][2]int32{{1, 1}, {1, 1}, {0, 2}}, rowCounts{loops: 2}},
		{"triple edge", 3, [][2]int32{{0, 2}, {2, 0}, {0, 2}, {1, 2}}, rowCounts{surplus: 2}},
		{"isolated node", 4, [][2]int32{{0, 1}, {1, 3}, {3, 0}}, rowCounts{}},
		{"loop beside a double edge to the same node", 2, [][2]int32{{0, 0}, {0, 1}, {1, 0}}, rowCounts{loops: 1, surplus: 1}},
		{"no edges", 70, nil, rowCounts{}},
	} {
		g, err := NewFromEdges(tc.n, tc.edges)
		if err != nil {
			t.Fatal(err)
		}
		check(tc.name, g, tc.want)
		if got, _ := pairCount(g); got != tc.want {
			t.Fatalf("%s: pair map %+v, want %+v", tc.name, got, tc.want)
		}
	}
}
