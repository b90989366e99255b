package phonecall

import (
	"fmt"
	"runtime/debug"
	"testing"

	"regcast/internal/graph"
	"regcast/internal/xrand"
)

// TestFastPathEngagement pins when the CSR fast path engages: on any
// topology exposing an epoch-stamped CSR view (frozen Static graphs and
// CSRViewer implementations with liveness bitsets alike), and never when
// DisableFastPath asks for the reference path or the topology offers no
// view.
func TestFastPathEngagement(t *testing.T) {
	g := testGraph(t, 64, 4, 1)
	base := Config{Topology: NewStatic(g), Protocol: pushProto{1, 10}, RNG: xrand.New(1)}

	e, err := NewEngine(base)
	if err != nil {
		t.Fatal(err)
	}
	if !e.fast {
		t.Error("Static topology did not engage the fast path")
	}
	if e.csrOff == nil || e.csrAdj == nil {
		t.Error("fast engine is missing its CSR view")
	}
	if e.aliveBits != nil {
		t.Error("Static view carries an alive bitset; it should be nil (all alive)")
	}

	ref := base
	ref.DisableFastPath = true
	e, err = NewEngine(ref)
	if err != nil {
		t.Fatal(err)
	}
	if e.fast {
		t.Error("DisableFastPath did not force the reference path")
	}

	dyn := base
	dyn.Topology = &churnTopo{g: g}
	e, err = NewEngine(dyn)
	if err != nil {
		t.Fatal(err)
	}
	if e.fast {
		t.Error("a Stepper without a CSR view engaged the fast path")
	}

	viewed := base
	viewed.Topology = newViewTopo(g, 64-1) // highest id dead
	e, err = NewEngine(viewed)
	if err != nil {
		t.Fatal(err)
	}
	if !e.fast {
		t.Error("CSRViewer topology did not engage the fast path")
	}
	if e.aliveBits == nil {
		t.Error("partially-alive CSR view lost its alive bitset")
	}
	if e.aliveCount() != 63 {
		t.Errorf("aliveCount over the bitset = %d, want 63", e.aliveCount())
	}

	// The dense edge census needs a fully-alive view; with dead ids the
	// engine must take the reference path (which records the census in
	// the endpoint-keyed map).
	census := viewed
	census.RecordRounds = true
	census.TrackEdgeUse = true
	e, err = NewEngine(census)
	if err != nil {
		t.Fatal(err)
	}
	if e.fast {
		t.Error("edge census on a partially-alive view kept the fast path")
	}
	if e.usedEdges == nil {
		t.Error("edge census on a partially-alive view lost the reference map")
	}
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
func (v *viewTopo) CSRView() (offsets, adj []int32, alive []uint64, epoch uint64) {
	offsets, adj = v.g.CSR()
	return offsets, adj, v.alive, 0
}

// TestEdgeCensusBitset unit-tests the CSR census structures against the
// reference map semantics: parallel edges between the same endpoints
// share one id (the map conflates them by endpoint key), a self-loop's
// two slots share one id, and the first markUsedID decrements both
// endpoints' unused counters exactly once (twice at v for a self-loop).
func TestEdgeCensusBitset(t *testing.T) {
	// Node 0: self-loop; nodes 1,2: double (parallel) edge; nodes 2,3: simple.
	g, err := graph.NewFromEdges(4, [][2]int32{{0, 0}, {0, 1}, {1, 2}, {1, 2}, {2, 3}})
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEngine(Config{
		Topology:     NewStatic(g),
		Protocol:     pushProto{1, 4},
		RNG:          xrand.New(1),
		RecordRounds: true,
		TrackEdgeUse: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if e.usedEdges != nil {
		t.Fatal("fast engine built the reference census map")
	}
	if len(e.edgeEndA) != 4 {
		t.Fatalf("census found %d distinct edges, want 4 (self-loop, conflated double edge, 0-1, 2-3)", len(e.edgeEndA))
	}
	// The two slots of the parallel pair 1-2 at node 1 must share an id.
	var ids []int32
	off, adj := g.CSR()
	for s := off[1]; s < off[2]; s++ {
		if adj[s] == 2 {
			ids = append(ids, e.slotEdge[s])
		}
	}
	if len(ids) != 2 || ids[0] != ids[1] {
		t.Fatalf("parallel edges got ids %v, want one shared id", ids)
	}

	wantDeg := []int32{3, 3, 3, 1}
	for v, want := range wantDeg {
		if e.unusedDeg[v] != want {
			t.Fatalf("unusedDeg[%d] = %d, want %d", v, e.unusedDeg[v], want)
		}
	}
	// Self-loop at 0: first use decrements node 0 twice; repeat is a no-op.
	loop := e.slotEdge[off[0]]
	e.markUsedID(loop)
	e.markUsedID(loop)
	if e.unusedDeg[0] != 1 {
		t.Errorf("after self-loop use, unusedDeg[0] = %d, want 1", e.unusedDeg[0])
	}
	// Parallel edge 1-2: one id, so one decrement at each endpoint ever.
	e.markUsedID(ids[0])
	e.markUsedID(ids[0])
	if e.unusedDeg[1] != 2 || e.unusedDeg[2] != 2 {
		t.Errorf("after double-edge use, unusedDeg[1,2] = %d,%d, want 2,2", e.unusedDeg[1], e.unusedDeg[2])
	}
}

// TestFastPathZeroAllocsSteadyState is the CSR fast path's allocation
// guard: with no observer, the steady-state round loop of the inline
// driver (Workers 0 and 1) allocates nothing — including in geometric
// fault-skipping mode, whose skip counters live in dialState. Two runs
// differing only in horizon must allocate identically; any per-round
// allocation would surface hundreds of times over the gap. The collector
// is off while counting: the longer run's cohort table is a larger
// object, so it would otherwise see more GC cycles, and a cycle's own
// bookkeeping allocations are counted too.
func TestFastPathZeroAllocsSteadyState(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	g := testGraph(t, 256, 8, 6)
	for _, tc := range []struct {
		name      string
		workers   int
		geometric bool
		loss      float64
	}{
		{"sequential", 0, false, 0},
		{"sharded-inline", 1, false, 0},
		{"sequential-geometric", 0, true, 0.2},
		{"sharded-geometric", 1, true, 0.2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			allocs := func(horizon int) float64 {
				return testing.AllocsPerRun(5, func() {
					e, err := NewEngine(Config{
						Topology:        NewStatic(g),
						Protocol:        pushProto{1, horizon},
						RNG:             xrand.New(5),
						Workers:         tc.workers,
						GeometricFaults: tc.geometric,
						MessageLossProb: tc.loss,
					})
					if err != nil {
						t.Fatal(err)
					}
					if !e.fast {
						t.Fatal("fast path did not engage")
					}
					e.Run()
				})
			}
			short, long := allocs(60), allocs(360)
			if extra := long - short; extra >= 1 {
				t.Errorf("fast path allocates per round: %.1f extra allocs over 300 extra rounds (%.3f/round)",
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
// hot operation — on both paths, so sampler regressions show up without
// running a full simulation. Grid: k in {1, 2, 4} × degree in {16, n-1}
// × {interface reference path, CSR fast path}.
func BenchmarkDial(b *testing.B) {
	const n = 1024
	for _, k := range []int{1, 2, 4} {
		for _, gname := range []string{"deg=16", "deg=n-1"} {
			g := benchDialGraph(b, gname, n)
			for _, path := range []string{"interface", "csr"} {
				name := fmt.Sprintf("%s/k=%d/%s", path, k, gname)
				b.Run(name, func(b *testing.B) {
					e, err := NewEngine(Config{
						Topology:        NewStatic(g),
						Protocol:        pushProto{k, 10},
						RNG:             xrand.New(1),
						DisableFastPath: path == "interface",
					})
					if err != nil {
						b.Fatal(err)
					}
					b.ReportAllocs()
					if path == "csr" {
						for i := 0; i < b.N; i++ {
							e.sampleDialsFast(i&(n-1), &e.shards[0].ds)
						}
					} else {
						for i := 0; i < b.N; i++ {
							e.sampleDialsFor(i&(n-1), &e.shards[0].ds)
						}
					}
				})
			}
		}
	}
}
