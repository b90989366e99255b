package stats

import (
	"fmt"
	"math"
	"sort"
)

// Accumulator computes mean, variance, min and max of a stream online
// (Welford's algorithm), so replication ensembles never need to retain
// their per-run samples. The zero value is an empty accumulator ready for
// use.
//
// Floating-point caveat: Add is a deterministic function of the call order,
// so two accumulators fed the same values in the same order are
// bit-identical — the property the batch engine's
// aggregate-in-replication-order discipline relies on.
type Accumulator struct {
	n    int
	mean float64
	m2   float64 // sum of squared deviations from the running mean
	min  float64
	max  float64
}

// Add records one observation.
func (a *Accumulator) Add(x float64) {
	if a.n == 0 {
		a.min, a.max = x, x
	} else {
		if x < a.min {
			a.min = x
		}
		if x > a.max {
			a.max = x
		}
	}
	a.n++
	d := x - a.mean
	a.mean += d / float64(a.n)
	a.m2 += d * (x - a.mean)
}

// N returns the number of observations recorded.
func (a *Accumulator) N() int { return a.n }

// Mean returns the arithmetic mean (0 for an empty accumulator).
func (a *Accumulator) Mean() float64 { return a.mean }

// Variance returns the sample variance (n-1 denominator; 0 for n < 2).
func (a *Accumulator) Variance() float64 {
	if a.n < 2 {
		return 0
	}
	return a.m2 / float64(a.n-1)
}

// Stddev returns the sample standard deviation.
func (a *Accumulator) Stddev() float64 { return math.Sqrt(a.Variance()) }

// HalfWidth returns the half-width of the normal-approximation
// two-sided confidence interval for the mean at confidence level conf
// (e.g. 0.95): z_{(1+conf)/2} · s / √n, from the Welford state alone.
// It returns +Inf for n < 2 (no variance estimate) and panics on a
// confidence level outside (0, 1). The mean ± HalfWidth interval is
// what adaptive-replication loops compare against a target precision.
func (a *Accumulator) HalfWidth(conf float64) float64 {
	if conf <= 0 || conf >= 1 {
		panic(fmt.Sprintf("stats: HalfWidth confidence %v outside (0, 1)", conf))
	}
	if a.n < 2 {
		return math.Inf(1)
	}
	z := zQuantile((1 + conf) / 2)
	return z * a.Stddev() / math.Sqrt(float64(a.n))
}

// zQuantile is the standard normal quantile function (inverse CDF),
// computed with Acklam's rational approximation (relative error below
// 1.15e-9 over the full open interval) — accurate far beyond what a
// CI half-width needs, with no dependency outside math.
func zQuantile(p float64) float64 {
	// Coefficients of Acklam's approximation.
	a := [6]float64{-3.969683028665376e+01, 2.209460984245205e+02,
		-2.759285104469687e+02, 1.383577518672690e+02,
		-3.066479806614716e+01, 2.506628277459239e+00}
	b := [5]float64{-5.447609879822406e+01, 1.615858368580409e+02,
		-1.556989798598866e+02, 6.680131188771972e+01,
		-1.328068155288572e+01}
	c := [6]float64{-7.784894002430293e-03, -3.223964580411365e-01,
		-2.400758277161838e+00, -2.549732539343734e+00,
		4.374664141464968e+00, 2.938163982698783e+00}
	d := [4]float64{7.784695709041462e-03, 3.224671290700398e-01,
		2.445134137142996e+00, 3.754408661907416e+00}
	const pLow = 0.02425
	switch {
	case p < pLow:
		q := math.Sqrt(-2 * math.Log(p))
		return (((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	case p <= 1-pLow:
		q := p - 0.5
		r := q * q
		return (((((a[0]*r+a[1])*r+a[2])*r+a[3])*r+a[4])*r + a[5]) * q /
			(((((b[0]*r+b[1])*r+b[2])*r+b[3])*r+b[4])*r + 1)
	default:
		q := math.Sqrt(-2 * math.Log(1-p))
		return -(((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	}
}

// Min returns the smallest observation (0 for an empty accumulator).
func (a *Accumulator) Min() float64 { return a.min }

// Max returns the largest observation (0 for an empty accumulator).
func (a *Accumulator) Max() float64 { return a.max }

// StreamHist is a streaming quantile sketch: the fixed-size centroid
// histogram of Ben-Haim & Tom-Tov ("A Streaming Parallel Decision Tree
// Algorithm", JMLR 2010). It retains at most maxBins (value, count)
// centroids, merging the closest adjacent pair when full, and estimates
// quantiles by interpolating the cumulative counts between centroids.
//
// The sketch is exact while the number of distinct values is at most
// maxBins, and deterministic: the state is a pure function of the sequence
// of Add calls (no randomness, no map iteration), so identical feeds
// produce bit-identical quantiles. It is not safe for concurrent use.
type StreamHist struct {
	maxBins int
	bins    []histBin // sorted by value
	count   int64
}

type histBin struct {
	value float64
	count float64
}

// NewStreamHist creates a sketch that retains at most maxBins centroids.
// Larger values are more accurate and slower; 64 is a good default for
// replication ensembles.
func NewStreamHist(maxBins int) (*StreamHist, error) {
	if maxBins < 2 {
		return nil, fmt.Errorf("stats: NewStreamHist maxBins=%d, need >= 2", maxBins)
	}
	return &StreamHist{maxBins: maxBins}, nil
}

// Add records one observation.
func (h *StreamHist) Add(x float64) {
	h.count++
	i := sort.Search(len(h.bins), func(i int) bool { return h.bins[i].value >= x })
	if i < len(h.bins) && h.bins[i].value == x {
		h.bins[i].count++ // exact duplicates share a centroid
		return
	}
	h.bins = append(h.bins, histBin{})
	copy(h.bins[i+1:], h.bins[i:])
	h.bins[i] = histBin{value: x, count: 1}
	h.compact()
}

// compact merges closest adjacent centroids until at most maxBins remain.
// Ties break toward the smallest index, keeping compaction deterministic.
func (h *StreamHist) compact() {
	for len(h.bins) > h.maxBins {
		best, bestGap := 0, math.Inf(1)
		for i := 0; i+1 < len(h.bins); i++ {
			if gap := h.bins[i+1].value - h.bins[i].value; gap < bestGap {
				best, bestGap = i, gap
			}
		}
		a, b := h.bins[best], h.bins[best+1]
		c := a.count + b.count
		h.bins[best] = histBin{value: (a.value*a.count + b.value*b.count) / c, count: c}
		h.bins = append(h.bins[:best+1], h.bins[best+2:]...)
	}
}

// Quantile estimates the q-quantile (0 <= q <= 1) of the stream. Each
// centroid is treated as its count of observations at its value, with
// linear interpolation of the cumulative distribution between adjacent
// centroids (half of each centroid's mass lies on either side of it, the
// paper's "trapezoid" reading). Returns NaN for an empty sketch.
func (h *StreamHist) Quantile(q float64) float64 {
	if len(h.bins) == 0 {
		return math.NaN()
	}
	if q <= 0 {
		return h.bins[0].value
	}
	if q >= 1 {
		return h.bins[len(h.bins)-1].value
	}
	target := q * float64(h.count)
	// cum is the mass strictly before the current centroid's value, under
	// the half-before/half-after reading.
	cum := 0.0
	for i, b := range h.bins {
		center := cum + b.count/2
		if target <= center {
			if i == 0 {
				return b.value
			}
			prev := h.bins[i-1]
			prevCenter := cum - prev.count/2
			frac := (target - prevCenter) / (center - prevCenter)
			return prev.value + frac*(b.value-prev.value)
		}
		cum += b.count
	}
	return h.bins[len(h.bins)-1].value
}
