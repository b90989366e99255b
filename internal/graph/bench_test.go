package graph

import (
	"testing"

	"regcast/internal/xrand"
)

func BenchmarkRandomRegular16k(b *testing.B) {
	rng := xrand.New(1)
	for i := 0; i < b.N; i++ {
		if _, err := RandomRegular(1<<14, 8, rng); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkConfigurationModel16k(b *testing.B) {
	rng := xrand.New(2)
	for i := 0; i < b.N; i++ {
		if _, err := ConfigurationModel(1<<14, 8, rng); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBFS16k(b *testing.B) {
	g, err := RandomRegular(1<<14, 8, xrand.New(3))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = g.BFSDistances(i % g.NumNodes())
	}
}

// BenchmarkStructuralReport128k times the simple=/connected= report every
// dense run prints, at the repo benchmark's dense-fourchoice shape.
func BenchmarkStructuralReport128k(b *testing.B) {
	g, err := RandomRegular(1<<17, 16, xrand.New(4))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !g.IsSimple() || !g.IsConnected() {
			b.Fatal("random regular graph not simple and connected")
		}
	}
}
