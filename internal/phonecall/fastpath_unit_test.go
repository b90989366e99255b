package phonecall

import (
	"errors"
	"fmt"
	"runtime/debug"
	"testing"

	"regcast/internal/graph"
	"regcast/internal/xrand"
)

// TestFastPathEngagement pins which view the engine reads a topology
// through: the CSR arrays of any CSRViewer (frozen Static graphs and
// partially-alive views alike), the ImplicitView of an ImplicitViewer, and
// interfaceView for a topology without either or whenever DisableFastPath
// asks for it — with a nil alive bitset exactly when every id is alive.
func TestFastPathEngagement(t *testing.T) {
	g := testGraph(t, 64, 4, 1)
	cube, err := graph.NewImplicitHypercube(6)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name    string
		topo    Topology
		disable bool
		view    string
		alive   int // -1: nil bitset
	}{
		{"static", NewStatic(g), false, "csr", -1},
		{"static-disabled", NewStatic(g), true, "interface", -1},
		{"partially-alive", newViewTopo(g, 64-1), false, "csr", 63},
		{"partially-alive-disabled", newViewTopo(g, 64-1), true, "interface", 63},
		{"implicit", NewImplicit(cube), false, "implicit", -1},
		{"implicit-disabled", NewImplicit(cube), true, "interface", -1},
		{"viewless-stepper", &churnTopo{g: g}, false, "interface", -1},
	} {
		e, err := NewEngine(Config{Topology: tc.topo, Protocol: pushProto{1, 10}, RNG: xrand.New(1), DisableFastPath: tc.disable})
		if err != nil {
			t.Fatal(err)
		}
		if got := e.View(); got != tc.view {
			t.Errorf("%s: view %q, want %q", tc.name, got, tc.view)
		}
		if (e.aliveBits == nil) != (tc.alive < 0) {
			t.Errorf("%s: alive bitset nil = %v, want %v", tc.name, e.aliveBits == nil, tc.alive < 0)
		}
		if tc.alive >= 0 && e.aliveCount() != tc.alive {
			t.Errorf("%s: aliveCount over the bitset = %d, want %d", tc.name, e.aliveCount(), tc.alive)
		}
	}
}

// TestEdgeCensusKeepsFastPath pins that TrackEdgeUse changes no view: on a
// fully-alive CSR view, a partially-alive one and an implicit one the
// engine keeps the topology's own view, and the run — Result and per-round
// |U(t)| — is bit-identical to the interface view's and to every worker
// count's; the implicit run also equals its materialised twin's.
func TestEdgeCensusKeepsFastPath(t *testing.T) {
	g := testGraph(t, 64, 4, 1)
	cube, err := graph.NewImplicitHypercube(6)
	if err != nil {
		t.Fatal(err)
	}
	dense, err := graph.Materialize(cube)
	if err != nil {
		t.Fatal(err)
	}
	run := func(topo Topology, view string, workers int) trace {
		var log RoundLog
		e, err := NewEngine(Config{
			Topology: topo, Protocol: pushPullProto{2, 12}, Source: 3, RNG: xrand.New(9),
			TrackEdgeUse: true, Observer: &log, DisableFastPath: view == "interface", Workers: workers,
		})
		if err != nil {
			t.Fatal(err)
		}
		if got := e.View(); got != view {
			t.Fatalf("%T: view %q under the census, want %q", topo, got, view)
		}
		res := e.Run()
		return trace{res, log}
	}
	for _, tc := range []struct {
		topo Topology
		view string
	}{{NewStatic(g), "csr"}, {newViewTopo(g, 17, 40, 63), "csr"}, {NewImplicit(cube), "implicit"}} {
		own := run(tc.topo, tc.view, 0)
		if first := own.rounds[0].UnusedEdgeNodes; first == 0 || first > 64 {
			t.Fatalf("%T: |U(1)| = %d, the census tracked nothing", tc.topo, first)
		}
		for _, workers := range []int{0, 1, 4} {
			assertSameTrace(t, own, run(tc.topo, tc.view, workers))
			assertSameTrace(t, own, run(tc.topo, "interface", workers))
		}
	}
	assertSameTrace(t, run(NewImplicit(cube), "implicit", 0), run(NewStatic(dense), "csr", 0))
}

// viewTopo adapts a frozen graph into a partially-alive CSRViewer — the
// minimal stand-in for overlay-shaped topologies in engine unit tests.
type viewTopo struct {
	g     *graph.Graph
	alive []uint64
}

func newViewTopo(g *graph.Graph, dead ...int) *viewTopo {
	v := &viewTopo{g: g, alive: make([]uint64, (g.NumNodes()+63)/64)}
	for i := 0; i < g.NumNodes(); i++ {
		v.alive[uint(i)>>6] |= 1 << (uint(i) & 63)
	}
	for _, d := range dead {
		v.alive[uint(d)>>6] &^= 1 << (uint(d) & 63)
	}
	return v
}

func (v *viewTopo) NumNodes() int         { return v.g.NumNodes() }
func (v *viewTopo) Degree(n int) int      { return v.g.Degree(n) }
func (v *viewTopo) Neighbor(n, i int) int { return v.g.Neighbor(n, i) }
func (v *viewTopo) Alive(n int) bool      { return v.alive[uint(n)>>6]&(1<<(uint(n)&63)) != 0 }
func (v *viewTopo) Symmetric() bool       { return v.g.Symmetric() }
func (v *viewTopo) CSRView() (offsets, adj []int32, alive []uint64, epoch uint64) {
	offsets, adj = v.g.CSR()
	return offsets, adj, v.alive, 0
}

// TestEdgeCensusBitset unit-tests markUsed on a multigraph: parallel
// edges between the same endpoints share one bit (the first slot holding
// the higher endpoint in the lower endpoint's row), a self-loop decrements
// its node twice on first use, a repeat use is a no-op, and unusedNodes
// follows the counters down — on both views, since the census is shared.
func TestEdgeCensusBitset(t *testing.T) {
	// Node 0: self-loop; nodes 1,2: double (parallel) edge; nodes 2,3: simple.
	g, err := graph.NewFromEdges(4, [][2]int32{{0, 0}, {0, 1}, {1, 2}, {1, 2}, {2, 3}})
	if err != nil {
		t.Fatal(err)
	}
	for _, reference := range []bool{false, true} {
		e, err := NewEngine(Config{
			Topology:        NewStatic(g),
			Protocol:        pushProto{1, 4},
			RNG:             xrand.New(1),
			TrackEdgeUse:    true,
			Observer:        new(RoundLog),
			DisableFastPath: reference,
		})
		if err != nil {
			t.Fatal(err)
		}
		check := func(when string, wantNodes int, wantDeg ...int32) {
			t.Helper()
			for v, want := range wantDeg {
				if e.unusedDeg[v] != want {
					t.Fatalf("reference=%v %s: unusedDeg[%d] = %d, want %d", reference, when, v, e.unusedDeg[v], want)
				}
			}
			if e.unusedNodes != wantNodes {
				t.Fatalf("reference=%v %s: unusedNodes = %d, want %d", reference, when, e.unusedNodes, wantNodes)
			}
		}
		if len(e.usedBits) != 1 {
			t.Fatalf("reference=%v: %d census words for 10 slots, want 1", reference, len(e.usedBits))
		}
		check("initially", 4, 3, 3, 3, 1)
		// Self-loop at 0: first use decrements node 0 twice; a repeat is a no-op.
		e.markUsed(edgeKey(0, 0))
		e.markUsed(edgeKey(0, 0))
		check("after the self-loop", 4, 1, 3, 3, 1)
		// Parallel edge 1-2, dialled from either side: one bit, so one
		// decrement at each endpoint ever.
		e.markUsed(edgeKey(1, 2))
		e.markUsed(edgeKey(2, 1))
		check("after the double edge", 4, 1, 2, 2, 1)
		// The simple edges empty nodes 3 and 0; the conflated pair keeps 1 and
		// 2 in U(t) for good.
		e.markUsed(edgeKey(3, 2))
		check("after 2-3", 3, 1, 2, 1, 0)
		e.markUsed(edgeKey(1, 0))
		e.markUsed(edgeKey(0, 1))
		check("after 0-1", 2, 0, 1, 1, 0)
	}
}

// hugeDegreeTopo is a 4-node stub whose every node reports degree 2³⁰, so
// the census slots sum to 2³² without any adjacency existing.
type hugeDegreeTopo struct{}

func (hugeDegreeTopo) NumNodes() int         { return 4 }
func (hugeDegreeTopo) Degree(int) int        { return 1 << 30 }
func (hugeDegreeTopo) Neighbor(v, _ int) int { return (v + 1) % 4 }
func (hugeDegreeTopo) Alive(int) bool        { return true }
func (hugeDegreeTopo) Symmetric() bool       { return true } // what the census asks first

// TestEdgeCensusRejectsSlotOverflow pins the census bound: slot offsets are
// int32, so a degree sum past math.MaxInt32 must fail in NewEngine — before
// the bitset is allocated — instead of wrapping.
func TestEdgeCensusRejectsSlotOverflow(t *testing.T) {
	cfg := Config{Topology: hugeDegreeTopo{}, Protocol: pushProto{1, 4}, RNG: xrand.New(1), Observer: new(RoundLog)}
	if _, err := NewEngine(cfg); err != nil {
		t.Fatalf("without the census: %v", err)
	}
	cfg.TrackEdgeUse = true
	if _, err := NewEngine(cfg); !errors.Is(err, errCensusTooLarge) {
		t.Fatalf("TrackEdgeUse with a 2^32 degree sum: err = %v, want errCensusTooLarge", err)
	}
}

// TestFastPathZeroAllocsSteadyState is the allocation guard of the shard
// pass on the CSR view: with no observer, the steady-state round loop of the inline
// driver (Workers 0 and 1) allocates nothing. Two runs differing only in
// horizon must allocate identically; any per-round allocation would
// surface hundreds of times over the gap. The collector is off while
// counting: the longer run's cohort table is a larger object, so it would
// otherwise see more GC cycles, and a cycle's own bookkeeping allocations
// are counted too.
func TestFastPathZeroAllocsSteadyState(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	g := testGraph(t, 256, 8, 6)
	for _, tc := range []struct {
		name    string
		workers int
	}{
		{"sequential", 0},
		{"sharded-inline", 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			allocs := func(horizon int) float64 {
				return testing.AllocsPerRun(5, func() {
					e, err := NewEngine(Config{
						Topology: NewStatic(g),
						Protocol: pushProto{1, horizon},
						RNG:      xrand.New(5),
						Workers:  tc.workers,
					})
					if err != nil {
						t.Fatal(err)
					}
					if e.View() != "csr" {
						t.Fatalf("view %q, want csr", e.View())
					}
					e.Run()
				})
			}
			short, long := allocs(60), allocs(360)
			if extra := long - short; extra >= 1 {
				t.Errorf("the shard pass allocates per round: %.1f extra allocs over 300 extra rounds (%.3f/round)",
					extra, extra/300)
			}
		})
	}
}

// benchDialGraph builds the BenchmarkDial topologies: a random 16-regular
// graph (the scale-bench degree, Fisher–Yates sampling regime) and a
// complete graph (degree n-1, the rejection regime).
func benchDialGraph(b *testing.B, name string, n int) *graph.Graph {
	b.Helper()
	var (
		g   *graph.Graph
		err error
	)
	if name == "deg=16" {
		g, err = graph.RandomRegular(n, 16, xrand.New(7))
	} else {
		g, err = graph.Complete(n)
	}
	if err != nil {
		b.Fatal(err)
	}
	return g
}

// BenchmarkDial measures one dial-sampling call — the engines' innermost
// hot operation — so sampler regressions show up without running a full
// simulation. Grid: k in {1, 2, 4} × degree in {16, n-1}, on the CSR view.
func BenchmarkDial(b *testing.B) {
	const n = 1024
	for _, k := range []int{1, 2, 4} {
		for _, gname := range []string{"deg=16", "deg=n-1"} {
			g := benchDialGraph(b, gname, n)
			b.Run(fmt.Sprintf("csr/k=%d/%s", k, gname), func(b *testing.B) {
				e, err := NewEngine(Config{Topology: NewStatic(g), Protocol: pushProto{k, 10}, RNG: xrand.New(1)})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportAllocs()
				ds := &e.shards[0].ds
				for i := 0; i < b.N; i++ {
					e.sampleDials(i&(n-1), 0, ds)
				}
			})
		}
	}
}
