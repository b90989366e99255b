package graph

import (
	"testing"

	"regcast/internal/xrand"
)

// The allocation benchmarks pin the direct-to-CSR generator build path:
// ConfigurationModel, ErasedConfigurationModel and Gnp fill the graph's
// offsets/adj arrays in place instead of materialising a [][2]int32 edge
// list (and, for the erasure, a global edge map) first — measured at
// n = 1M: 113→76 MB/op, 583→122 MB/op and 247→42 MB/op respectively.
// RandomRegular does the same and keeps no edge map beside the rows —
// at n = 1M, d = 16: 517→143 MB/op, 32 776→5 allocs (CHANGES.md's PR 5
// and PR 14 lines). They run at full scale, so they skip themselves under
// -short (the CI bench smoke).

func benchGen(b *testing.B, gen func(rng *xrand.Rand) (*Graph, error)) {
	b.Helper()
	if testing.Short() {
		b.Skip("1M-node generator benchmarks are not part of the -short smoke")
	}
	rng := xrand.New(7)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g, err := gen(rng)
		if err != nil {
			b.Fatal(err)
		}
		if g.NumNodes() == 0 {
			b.Fatal("empty graph")
		}
	}
}

func BenchmarkConfigurationModelAlloc1M(b *testing.B) {
	benchGen(b, func(rng *xrand.Rand) (*Graph, error) {
		return ConfigurationModel(1<<20, 8, rng)
	})
}

func BenchmarkErasedConfigurationModelAlloc1M(b *testing.B) {
	benchGen(b, func(rng *xrand.Rand) (*Graph, error) {
		return ErasedConfigurationModel(1<<20, 8, rng)
	})
}

func BenchmarkGnpAlloc1M(b *testing.B) {
	benchGen(b, func(rng *xrand.Rand) (*Graph, error) {
		// Mean degree 8, the simulator's standard density.
		return Gnp(1<<20, 8.0/(1<<20), rng)
	})
}

func BenchmarkRandomRegularAlloc1M(b *testing.B) {
	benchGen(b, func(rng *xrand.Rand) (*Graph, error) {
		// The scale smoke's shape (broadcast-sim -n 1000000 -d 16).
		return RandomRegular(1<<20, 16, rng)
	})
}
