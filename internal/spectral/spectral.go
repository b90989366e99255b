// Package spectral estimates spectral quantities of regular graphs that the
// paper's lower-bound analysis (§2) relies on: the second-largest adjacency
// eigenvalue in absolute value, which for random d-regular graphs is
// 2·√(d−1)·(1+o(1)) by Friedman's theorem, and the Expander Mixing Lemma
// deviation |e(S,S̄) − d·|S|·|S̄|/n| ≤ λ·√(|S|·|S̄|).
package spectral

import (
	"fmt"
	"math"

	"regcast/internal/graph"
	"regcast/internal/xrand"
)

// SecondEigenvalue estimates |λ₂| of the adjacency matrix of a connected
// d-regular graph by power iteration restricted to the subspace orthogonal
// to the all-ones vector (the top eigenvector of a regular graph). The
// estimate converges to the largest |λ| among non-trivial eigenvalues; for
// bipartite graphs this is d itself (λ = −d).
//
// iters controls the number of power iterations; 200 is ample for the
// graph sizes used in this repository.
func SecondEigenvalue(g *graph.Graph, iters int, rng *xrand.Rand) (float64, error) {
	n := g.NumNodes()
	if n < 2 {
		return 0, fmt.Errorf("spectral: graph too small (n=%d)", n)
	}
	if iters <= 0 {
		return 0, fmt.Errorf("spectral: iters=%d must be positive", iters)
	}
	x := make([]float64, n)
	y := make([]float64, n)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	deflate(x)
	if norm(x) == 0 {
		return 0, fmt.Errorf("spectral: degenerate start vector")
	}
	normalize(x)
	for it := 0; it < iters; it++ {
		multiplyAdjacency(g, x, y)
		deflate(y)
		ny := norm(y)
		if ny == 0 {
			// x was (numerically) in the kernel; restart from noise.
			for i := range x {
				x[i] = rng.NormFloat64()
			}
			deflate(x)
			normalize(x)
			continue
		}
		for i := range y {
			y[i] /= ny
		}
		x, y = y, x
	}
	// The eigenvalue can be negative (e.g. near-bipartite structure); the
	// quantity of interest is its magnitude, ‖A·x‖.
	multiplyAdjacency(g, x, y)
	deflate(y)
	return norm(y), nil
}

// AlonBoppanaBound returns the asymptotic lower bound 2·√(d−1) that random
// regular graphs meet within (1+o(1)) (Friedman's theorem, used in §2).
func AlonBoppanaBound(d int) float64 {
	if d < 1 {
		return 0
	}
	return 2 * math.Sqrt(float64(d-1))
}

// MixingReport holds the outcome of an Expander Mixing Lemma check.
type MixingReport struct {
	Trials       int
	MaxDeviation float64 // max over trials of |e(S,S̄) − d|S||S̄|/n| / √(|S||S̄|)
	Lambda       float64 // the λ estimate used for the bound
	Violations   int     // trials where deviation exceeded λ
}

// CheckMixing samples random vertex subsets of the d-regular graph g and
// verifies the Expander Mixing Lemma deviation against lambda. The lemma
// guarantees deviation ≤ λ for every set, so Violations > 0 means lambda
// underestimates the true λ₂.
func CheckMixing(g *graph.Graph, d int, lambda float64, trials int, rng *xrand.Rand) (MixingReport, error) {
	n := g.NumNodes()
	if n < 4 {
		return MixingReport{}, fmt.Errorf("spectral: graph too small for mixing check (n=%d)", n)
	}
	if trials <= 0 {
		return MixingReport{}, fmt.Errorf("spectral: trials=%d must be positive", trials)
	}
	rep := MixingReport{Trials: trials, Lambda: lambda}
	inSet := make([]bool, n)
	for trial := 0; trial < trials; trial++ {
		for i := range inSet {
			inSet[i] = false
		}
		// Sizes spread across the range [1, n-1].
		size := 1 + rng.IntN(n-1)
		for _, v := range rng.DistinctK(nil, size, n, nil) {
			inSet[v] = true
		}
		cut := float64(g.EdgesBetween(inSet))
		s := float64(size)
		sBar := float64(n - size)
		expect := float64(d) * s * sBar / float64(n)
		dev := math.Abs(cut-expect) / math.Sqrt(s*sBar)
		if dev > rep.MaxDeviation {
			rep.MaxDeviation = dev
		}
		if dev > lambda {
			rep.Violations++
		}
	}
	return rep, nil
}

// multiplyAdjacency computes y = A·x for the (multi)graph's adjacency
// matrix; parallel edges contribute multiplicity and self-loops weight 2
// (consistent with stub counting).
func multiplyAdjacency(g *graph.Graph, x, y []float64) {
	for i := range y {
		y[i] = 0
	}
	for v := 0; v < g.NumNodes(); v++ {
		for _, w := range g.Neighbors(v) {
			y[v] += x[w]
		}
	}
}

// deflate removes the component along the all-ones vector.
func deflate(x []float64) {
	mean := 0.0
	for _, v := range x {
		mean += v
	}
	mean /= float64(len(x))
	for i := range x {
		x[i] -= mean
	}
}

func dot(a, b []float64) float64 {
	s := 0.0
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

func norm(x []float64) float64 {
	return math.Sqrt(dot(x, x))
}

func normalize(x []float64) {
	n := norm(x)
	if n == 0 {
		return
	}
	for i := range x {
		x[i] /= n
	}
}
