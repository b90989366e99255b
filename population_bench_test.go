package regcast_test

import (
	"context"
	"fmt"
	"testing"

	"regcast"
)

// Population-engine scale benchmarks: the compiled kernels (tables,
// incremental occupancy, batched draws) inline and pooled. MaxSteps is
// fixed (the 1M runs never converge inside it), making every iteration
// the same amount of simulated work. Run with:
//
//	go test -bench BenchmarkPopulation -benchtime 3x .
//
// Like the other scale benchmarks, the grid skips itself under -short:
// CI's machine-readable population numbers come from cmd/regcast-bench's
// populations grid instead.

// benchPopSizes returns the agent counts to sweep, skipping under
// -short (CI smoke).
func benchPopSizes(b *testing.B) []int {
	b.Helper()
	if testing.Short() {
		b.Skip("population scale benchmarks skipped under -short (100k/1M-agent sweeps)")
	}
	return []int{100_000, 1_000_000}
}

// benchPopulation runs one (scenario, workers) cell.
func benchPopulation(b *testing.B, sc regcast.PopulationScenario, workers int) {
	b.Helper()
	r := regcast.NewRunner(regcast.WithWorkers(workers))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sc.Seed = uint64(i) + 1
		if _, err := r.Run(context.Background(), sc); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPopulationLeader sweeps leader election — 25 state bits, so
// the engine runs the hand-fused ApplyPairs batch kernel plus
// batched draws (no table, no counts).
func BenchmarkPopulationLeader(b *testing.B) {
	for _, n := range benchPopSizes(b) {
		le, err := regcast.NewLeaderElection(n)
		if err != nil {
			b.Fatal(err)
		}
		sc := regcast.PopulationScenario{
			N: n, Pair: le, Init: regcast.InitAllLeaders, MaxSteps: 30,
		}
		for _, workers := range []int{0, 4} {
			b.Run(fmt.Sprintf("n=%d/workers=%d", n, workers),
				func(b *testing.B) { benchPopulation(b, sc, workers) })
		}
	}
}

// BenchmarkPopulationMajority sweeps approximate majority — 3 states,
// deterministic transitions, so every kernel engages: the
// compiled transition table, the incremental occupancy measure, and
// batched draws.
func BenchmarkPopulationMajority(b *testing.B) {
	for _, n := range benchPopSizes(b) {
		sc := regcast.PopulationScenario{
			N: n, Pair: regcast.NewApproxMajority(),
			Init: regcast.InitMajority(0.51), MaxSteps: 30,
		}
		for _, workers := range []int{0, 4} {
			b.Run(fmt.Sprintf("n=%d/workers=%d", n, workers),
				func(b *testing.B) { benchPopulation(b, sc, workers) })
		}
	}
}
