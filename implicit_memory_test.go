package regcast_test

import (
	"context"
	"runtime"
	"testing"

	"regcast"
	"regcast/internal/baseline"
)

// memoryGuard runs sc through the facade and fails if the run is incomplete
// or allocates more than budgetMB in total.
func memoryGuard(t *testing.T, sc regcast.Scenario, n int, budgetMB uint64) {
	t.Helper()
	if raceEnabled {
		t.Skip("allocation budgets are meaningless under the race detector")
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	res, err := regcast.Run(context.Background(), sc)
	if err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)

	if !res.AllInformed {
		t.Fatalf("broadcast incomplete: %d/%d informed", res.Informed, n)
	}
	alloc := after.TotalAlloc - before.TotalAlloc
	t.Logf("n=%d: %.1f MB allocated (%.1f B/node)", n, float64(alloc)/(1<<20), float64(alloc)/float64(n))
	if alloc > budgetMB<<20 {
		t.Errorf("implicit 1M-node broadcast allocated %.1f MB, budget %d MB — is the implicit path materialising adjacency, or the engine keeping per-node state the model does not need?",
			float64(alloc)/(1<<20), budgetMB)
	}
}

// TestImplicitMemoryGuard is the memory-wall regression gate: a full
// push broadcast on a one-million-node implicit hypercube must stay
// within a fixed allocation budget. The budget (12 MB, ~12 B/node; the run
// reads 6.4) is far below the 84 MB the dense dim-20 hypercube spends on
// its CSR adjacency alone, so the test fails loudly if the engine ever
// starts materialising implicit topologies — the exact regression the
// implicit fast path exists to prevent — and it is below the 18.5 B/node
// the engine itself spent while it kept a global dial array, a
// preallocated receipt queue and a copy of the receipts for the Result.
func TestImplicitMemoryGuard(t *testing.T) {
	const dim = 20 // 1,048,576 nodes
	n := 1 << dim
	proto, err := baseline.NewPush(n, 1)
	if err != nil {
		t.Fatal(err)
	}
	sc, err := regcast.NewScenarioSpec(regcast.HypercubeSpec{Dim: dim}, proto,
		regcast.WithSeed(1), regcast.WithStopEarly())
	if err != nil {
		t.Fatal(err)
	}
	memoryGuard(t, sc, n, 12)
}

// TestImplicitMemoryGuardFourChoice is the guard's twin for the paper's own
// protocol on the stream family, the configuration the n = 2²⁷ staircase
// runs: four dial slots per node and a pull round, in 24 MB (~24 B/node)
// where a global n×k dial array alone is 16 B/node.
func TestImplicitMemoryGuardFourChoice(t *testing.T) {
	const n, d = 1 << 20, 8
	spec, err := regcast.ParseTopologySpec("regular-stream:n=1048576,d=8")
	if err != nil {
		t.Fatal(err)
	}
	proto, err := regcast.NewFourChoice(n, d)
	if err != nil {
		t.Fatal(err)
	}
	sc, err := regcast.NewScenarioSpec(spec, proto, regcast.WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	memoryGuard(t, sc, n, 24)
}
