package phonecall_test

import (
	"fmt"
	"reflect"
	"testing"

	"regcast/internal/baseline"
	"regcast/internal/core"
	"regcast/internal/graph"
	"regcast/internal/phonecall"
)

// matchesInterfaceView is matchesGeneralPass for a topology the census
// oracle cannot read: the edge census looks an edge up in its lower
// endpoint's row, which a digraph's arc need not be in. The oracle is the
// same run through interfaceView, which takes the general pass every
// round (no uniform degree for row to read) and never a sparse-frontier
// round. It returns the run's sparse-frontier round count.
func matchesInterfaceView(t *testing.T, label string, cfg phonecall.Config, topo phonecall.Topology, seed uint64) int {
	t.Helper()
	got, gotLog, frontier := frontierRun(t, cfg, topo, seed)
	want, wantLog := runSeeded(t, cfg, struct{ phonecall.Topology }{topo}, seed)
	sameResult(t, label, want, got)
	if !reflect.DeepEqual(gotLog, wantLog) {
		t.Fatalf("%s: observer sequences differ", label)
	}
	return frontier
}

// claimsSymmetric is a topology that declares graph.Symmetric whatever its
// rows are: the engine takes it at its word.
type claimsSymmetric struct{ phonecall.Static }

func (claimsSymmetric) Symmetric() bool { return true }

// gnpStream is a seeded directed G(n, p) of mean out-degree deg.
func gnpStream(t testing.TB, n, deg int, seed uint64) *graph.GnpStream {
	t.Helper()
	g, err := graph.NewGnpStream(n, float64(deg)/float64(n-1), seed)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestSparseFrontierDirectedNeverEngages: a sparse-frontier round is
// licensed by declared symmetric rows, never assumed. GnpStream is a
// digraph (an uninformed id's row is not its in-neighbourhood), so neither
// it nor its Materialize twin — a CSR view the word kernel reads — nor any
// interfaceView takes one, and each run equals its oracle. The twin
// declared symmetric (claimsSymmetric) and the unwrapped regular stream do
// take them, so the zeros are the declaration's doing, not the shape's;
// and the twin so declared departs from its oracle (its marks miss senders
// whose arcs reach an uninformed id), which is why the license is needed.
func TestSparseFrontierDirectedNeverEngages(t *testing.T) {
	const n = 2000
	gnp := gnpStream(t, n, 8, 7)
	twin, err := graph.Materialize(gnp)
	if err != nil {
		t.Fatal(err)
	}
	if twin.Symmetric() {
		t.Fatal("Materialize(GnpStream) reports Symmetric")
	}
	stream, err := graph.NewRegularStream(n, 8, 7)
	if err != nil {
		t.Fatal(err)
	}
	push, err := baseline.NewPush(n, 1)
	if err != nil {
		t.Fatal(err)
	}
	fourChoice, err := core.New(n, 8)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name     string
		topo     phonecall.Topology
		oracle   string // "census", "interface" (a digraph, which the census cannot read) or "" (none)
		frontier bool
	}{
		{"gnp-stream implicit", phonecall.NewImplicit(gnp), "interface", false},
		{"gnp-stream materialised", phonecall.NewStatic(twin), "interface", false},
		{"gnp-stream materialised interface", struct{ phonecall.Topology }{phonecall.NewStatic(twin)}, "interface", false},
		{"regular-stream interface", interfaceOnly{phonecall.NewImplicit(stream)}, "census", false},
		{"regular-stream", phonecall.NewImplicit(stream), "census", true},
		{"gnp-stream materialised, declared symmetric", claimsSymmetric{phonecall.NewStatic(twin)}, "", true},
	} {
		for _, proto := range []phonecall.Protocol{push, fourChoice} {
			for _, workers := range []int{0, 4} {
				label := fmt.Sprintf("%s %s workers=%d", tc.name, proto.Name(), workers)
				cfg := phonecall.Config{Protocol: proto, Workers: workers}
				var frontier int
				switch tc.oracle {
				case "interface":
					frontier = matchesInterfaceView(t, label, cfg, tc.topo, 3)
				case "census":
					frontier = matchesGeneralPass(t, label, cfg, func() phonecall.Topology { return tc.topo }, 3)
				default:
					var got phonecall.Result
					got, _, frontier = frontierRun(t, cfg, tc.topo, 3)
					want, _ := runSeeded(t, cfg, struct{ phonecall.Topology }{tc.topo}, 3)
					if got.Transmissions == want.Transmissions && reflect.DeepEqual(got.InformedAt, want.InformedAt) {
						t.Errorf("%s: a digraph declared symmetric still matched its oracle: the guard is untested", label)
					}
				}
				if (frontier > 0) != tc.frontier {
					t.Errorf("%s: %d sparse-frontier rounds, want some: %v", label, frontier, tc.frontier)
				}
			}
		}
	}
}

// withIsolated is g with extra isolated ids appended: they stay uninformed,
// so a run on it never settles.
func withIsolated(t testing.TB, g *graph.Graph, extra int) *graph.Graph {
	t.Helper()
	var edges [][2]int32
	for v := 0; v < g.NumNodes(); v++ {
		for _, w := range g.Neighbors(v) {
			if int(w) > v {
				edges = append(edges, [2]int32{int32(v), w})
			}
		}
	}
	out, err := graph.NewFromEdges(g.NumNodes()+extra, edges)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestSparseFrontierPooledMatchesCensus holds sparse-frontier rounds to the
// census oracle at every Workers × Shards pair on shapes where they engage:
// a pass on the pool borrows any of up to Workers receipt bitsets, and
// every one must carry the marks (markFrontier), or a sender whose pass
// drew an unmarked one would drop its receipts. Workers never changes a
// trace, so every run of one shard count also equals every other. The
// stragglers shape is the root zero-allocation guard's: isolated ids hold
// the run unsettled, and every round from the spread on is sparse.
func TestSparseFrontierPooledMatchesCensus(t *testing.T) {
	stream, err := graph.NewRegularStream(3000, 8, 5)
	if err != nil {
		t.Fatal(err)
	}
	dense := phonecall.NewStatic(mustRegular(t, 2000, 16, 41))
	push, err := baseline.NewPush(3000, 1)
	if err != nil {
		t.Fatal(err)
	}
	streamFourChoice, err := core.New(3000, 8)
	if err != nil {
		t.Fatal(err)
	}
	denseFourChoice, err := core.New(2000, 16)
	if err != nil {
		t.Fatal(err)
	}
	stragglers := phonecall.NewStatic(withIsolated(t, mustRegular(t, 256, 8, 6), 4))
	stragglersPush, err := baseline.NewPush(1<<12, 1) // a horizon well past the spread
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name     string
		topo     phonecall.Topology
		proto    phonecall.Protocol
		frontier int // at least this many sparse-frontier rounds
	}{
		{"stream-push", phonecall.NewImplicit(stream), push, 1},
		{"stream-fourchoice", phonecall.NewImplicit(stream), streamFourChoice, 1},
		{"dense-fourchoice", dense, denseFourChoice, 1},
		{"stragglers", stragglers, stragglersPush, stragglersPush.Horizon() - 16},
	} {
		for _, shards := range []int{1, 7, 64} {
			for _, workers := range []int{0, 1, 4} {
				label := fmt.Sprintf("%s shards=%d workers=%d", tc.name, shards, workers)
				cfg := phonecall.Config{Protocol: tc.proto, Workers: workers}
				cfg.SetShards(shards)
				if frontier := matchesGeneralPass(t, label, cfg, func() phonecall.Topology { return tc.topo }, 11); frontier < tc.frontier {
					t.Errorf("%s: %d sparse-frontier rounds, want at least %d", label, frontier, tc.frontier)
				}
			}
		}
	}
}
