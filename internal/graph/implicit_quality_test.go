package graph_test

import (
	"math"
	"testing"

	"regcast/internal/graph"
	"regcast/internal/spectral"
	"regcast/internal/xrand"
)

// TestRegularStreamLooksRandom is the quality gate on the stream's
// Feistel permutations: a round function is only acceptable if, averaged
// over seeds, the 2-factors have a uniform permutation's cycle count
// (H_n) and fixed points (one per permutation, so d self-loop slots per
// graph), and their union expands like a configuration-model graph.
func TestRegularStreamLooksRandom(t *testing.T) {
	const d, seeds = 8, 64
	for _, n := range []int{4096, 5000, 100003} {
		var cycles, loops int
		seen := make([]bool, n)
		for seed := uint64(0); seed < seeds; seed++ {
			im, err := graph.NewRegularStream(n, d, seed)
			if err != nil {
				t.Fatal(err)
			}
			for j := 0; j < d/2; j++ {
				clear(seen)
				for v := 0; v < n; v++ {
					if seen[v] {
						continue
					}
					cycles++
					if int(im.NeighborAt(v, 2*j)) == v {
						loops += 2 // a fixed point of π_j fills slots 2j and 2j+1
					}
					for w := v; !seen[w]; w = int(im.NeighborAt(w, 2*j)) {
						seen[w] = true
					}
				}
			}
		}
		harmonic := 0.0
		for k := 1; k <= n; k++ {
			harmonic += 1 / float64(k)
		}
		meanCycles := float64(cycles) / (seeds * d / 2)
		meanLoops := float64(loops) / seeds
		t.Logf("n=%d: %.2f cycles per permutation (H_n = %.2f), %.2f self-loop slots per graph", n, meanCycles, harmonic, meanLoops)
		if math.Abs(meanCycles-harmonic) > 1.0 {
			t.Errorf("n=%d: mean %.2f cycles per permutation, want H_n = %.2f ± 1.0", n, meanCycles, harmonic)
		}
		if math.Abs(meanLoops-d) > 1.5 {
			t.Errorf("n=%d: mean %.2f self-loop slots per graph, want %d ± 1.5", n, meanLoops, d)
		}
	}

	// Spectral gap against the dense generator on the same n, d.
	const n, graphs = 4096, 8
	var stream, dense float64
	for seed := uint64(0); seed < graphs; seed++ {
		im, err := graph.NewRegularStream(n, d, seed)
		if err != nil {
			t.Fatal(err)
		}
		sg, err := graph.Materialize(im)
		if err != nil {
			t.Fatal(err)
		}
		rng := xrand.New(seed)
		dg, err := graph.RandomRegular(n, d, rng.Split())
		if err != nil {
			t.Fatal(err)
		}
		lambda2 := func(g *graph.Graph) float64 {
			l2, err := spectral.SecondEigenvalue(g, 200, rng.Split())
			if err != nil {
				t.Fatal(err)
			}
			return l2
		}
		stream += lambda2(sg) / graphs
		dense += lambda2(dg) / graphs
	}
	t.Logf("n=%d d=%d: mean λ₂ stream %.4f, RandomRegular %.4f (2√(d−1) = %.4f)", n, d, stream, dense, spectral.AlonBoppanaBound(d))
	if stream > 1.05*dense {
		t.Errorf("mean λ₂ of the stream %.4f exceeds 1.05 × RandomRegular's %.4f", stream, dense)
	}
}
