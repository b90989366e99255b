package xrand

import (
	"fmt"
	"math"
	"testing"
)

// The exact laws of the samplers the engine dials through. The
// equivalence tests hold Distinct2/3/4 to DistinctK draw for draw, so a
// bias they share (a sampler that never picks the last index, or returns
// its picks sorted) passes all of them; these tests compare each sampler
// with the uniform law it promises instead.
//
// Every check is Pearson's chi-square against a uniform law, refused above
// the Wilson–Hilferty quantile at lawZ. Seeds and the threshold were fixed
// before the first run: a uniform sampler fails one check with
// probability about 3·10⁻⁷.
const (
	lawZ       = 5
	lawPerCell = 20    // expected draws per cell
	lawMinDraw = 20000 // floor on the draws of a check with few cells
)

// chiSquareQuantile is the upper-z quantile of the chi-square law with df
// degrees of freedom (Wilson–Hilferty cube-root normal approximation).
func chiSquareQuantile(df int, z float64) float64 {
	h := 2 / (9 * float64(df))
	return float64(df) * math.Pow(1-h+z*math.Sqrt(h), 3)
}

// lawDraws is how many draws a check over cells cells takes.
func lawDraws(cells int) int { return max(lawPerCell*cells, lawMinDraw) }

// checkUniformCells fails unless counts, over the cells the law allows
// (allowed[i]; nil allows every cell), fit the uniform law on them. A draw
// in a disallowed cell fails outright.
func checkUniformCells(t *testing.T, label string, counts []int, allowed []bool) {
	t.Helper()
	total, cells := 0, 0
	for i, c := range counts {
		if allowed != nil && !allowed[i] {
			if c != 0 {
				t.Fatalf("%s: %d draws in impossible cell %d", label, c, i)
			}
			continue
		}
		total += c
		cells++
	}
	want := float64(total) / float64(cells)
	var stat float64
	for i, c := range counts {
		if allowed == nil || allowed[i] {
			diff := float64(c) - want
			stat += diff * diff / want
		}
	}
	if limit := chiSquareQuantile(cells-1, lawZ); stat > limit {
		t.Errorf("%s: chi-square %.1f over %d cells exceeds %.1f (z=%d)", label, stat, cells, limit, lawZ)
	}
}

// orderedTuples returns the number of ordered k-tuples of distinct values
// from [0, d), d!/(d-k)!.
func orderedTuples(k, d int) int {
	cells := 1
	for i := 0; i < k; i++ {
		cells *= d - i
	}
	return cells
}

// TestDistinctSmallExactLaw: in the Fisher–Yates regime (every degree
// up to 16) each ordered k-tuple of distinct values is equally likely
// under Distinct2/3/4, over every one of the d!/(d-k)! tuples.
func TestDistinctSmallExactLaw(t *testing.T) {
	for k := 2; k <= 4; k++ {
		for d := k; d <= 16; d++ {
			size := 1 // cells indexed base d: d^k, the distinct ones allowed
			for i := 0; i < k; i++ {
				size *= d
			}
			counts, allowed := make([]int, size), make([]bool, size)
			for i := range allowed {
				seen, x := 0, i
				allowed[i] = true
				for j := 0; j < k; j++ {
					bit := 1 << (x % d)
					if seen&bit != 0 {
						allowed[i] = false
					}
					seen |= bit
					x /= d
				}
			}
			r := New(uint64(0x1a55 + 100*k + d))
			for range lawDraws(orderedTuples(k, d)) {
				idx := 0
				for _, v := range distinctSmallVia(r, k, d) {
					idx = idx*d + v
				}
				counts[idx]++
			}
			checkUniformCells(t, fmt.Sprintf("Distinct%d(%d) ordered tuples", k, d), counts, allowed)
		}
	}
}

// TestIntNExactLaw: IntN is uniform over its n cells, at powers of two
// (no Lemire rejection) and at other sizes (a non-empty rejection window).
func TestIntNExactLaw(t *testing.T) {
	for _, n := range []int{1, 2, 3, 5, 7, 8, 10, 16, 17, 63, 64, 100, 1000} {
		counts := make([]int, n)
		r := New(uint64(0x1a77 + n))
		for range lawDraws(n) {
			counts[r.IntN(n)]++
		}
		if n == 1 {
			if counts[0] != lawDraws(1) {
				t.Fatalf("IntN(1) left [0, 1)")
			}
			continue
		}
		checkUniformCells(t, fmt.Sprintf("IntN(%d)", n), counts, nil)
	}
}

// TestDistinctSmallRejectionLaw: in the rejection regime (degree 64 and
// up) every output position of Distinct2/3/4 is uniform on [0, d), and the
// ordered pair of the first two positions is uniform on the d(d-1)
// distinct pairs.
func TestDistinctSmallRejectionLaw(t *testing.T) {
	for _, d := range []int{64, 100} {
		for k := 2; k <= 4; k++ {
			marginals := make([][]int, k)
			for p := range marginals {
				marginals[p] = make([]int, d)
			}
			pairs, allowed := make([]int, d*d), make([]bool, d*d)
			for i := range allowed {
				allowed[i] = i/d != i%d
			}
			r := New(uint64(0x1a99 + 1000*k + d))
			for range lawDraws(d * (d - 1)) {
				got := distinctSmallVia(r, k, d)
				for p, v := range got {
					marginals[p][v]++
				}
				pairs[got[0]*d+got[1]]++
			}
			for p, counts := range marginals {
				checkUniformCells(t, fmt.Sprintf("Distinct%d(%d) position %d", k, d, p), counts, nil)
			}
			checkUniformCells(t, fmt.Sprintf("Distinct%d(%d) first pair", k, d), pairs, allowed)
		}
	}
}
