package phonecall_test

import (
	"runtime"
	"testing"

	"regcast/internal/baseline"
	"regcast/internal/core"
	"regcast/internal/graph"
	"regcast/internal/phonecall"
	"regcast/internal/xrand"
)

// TestEngineFootprint prices the engine's own state in bytes per node:
// everything NewEngine and Run allocate, the topology excluded. What the
// model needs is a 4-byte receipt round per node; beside it the engine
// keeps an informed bit and, per shard pass in flight (one, inline), a
// receipt bit and — in a pull round — one shard's worth of dial rows. A
// global n×k dial array (4k B/node), a receipt queue or per-shard outboxes
// (4 B per queued receipt) or a copy of the receipts for the Result
// (4 B/node) each break a budget below, and the view must not matter: a
// dense Static view gets the implicit view's budget and nothing per node
// on top.
func TestEngineFootprint(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation budgets are meaningless under the race detector")
	}
	const n, d = 1 << 18, 8
	stream, err := graph.NewRegularStream(n, d, 41)
	if err != nil {
		t.Fatal(err)
	}
	dense, err := graph.RandomRegular(n, d, xrand.New(42))
	if err != nil {
		t.Fatal(err)
	}
	push, err := baseline.NewPush(n, 1)
	if err != nil {
		t.Fatal(err)
	}
	fourChoice, err := core.New(n, d)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name    string
		topo    phonecall.Topology
		proto   phonecall.Protocol
		perNode float64
	}{
		{"push/implicit", phonecall.NewImplicit(stream), push, 5},
		{"fourchoice/implicit", phonecall.NewImplicit(stream), fourChoice, 5},
		{"push/dense", phonecall.NewStatic(dense), push, 5},
		{"fourchoice/dense", phonecall.NewStatic(dense), fourChoice, 5},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			e, err := phonecall.NewEngine(phonecall.Config{Topology: tc.topo, Protocol: tc.proto, RNG: xrand.New(43)})
			if err != nil {
				t.Fatal(err)
			}
			res := e.Run()
			runtime.ReadMemStats(&after)
			if !res.AllInformed {
				t.Fatalf("broadcast incomplete: %d/%d informed", res.Informed, n)
			}
			perNode := float64(after.TotalAlloc-before.TotalAlloc) / n
			t.Logf("%.2f B/node over NewEngine + Run (%d rounds)", perNode, res.Rounds)
			if perNode > tc.perNode {
				t.Errorf("engine state is %.2f B/node, budget %.0f", perNode, tc.perNode)
			}
		})
	}
}
