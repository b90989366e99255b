package stats

import (
	"math"
	"testing"
)

func TestAccumulatorMatchesSummarize(t *testing.T) {
	xs := []float64{3, 1, 4, 1, 5, 9, 2, 6, 5, 3.5}
	var a Accumulator
	for _, x := range xs {
		a.Add(x)
	}
	s := Summarize(xs)
	if a.N() != s.N {
		t.Fatalf("N = %d, want %d", a.N(), s.N)
	}
	for _, c := range []struct {
		name      string
		got, want float64
	}{
		{"mean", a.Mean(), s.Mean},
		{"stddev", a.Stddev(), s.Stddev},
	} {
		if math.Abs(c.got-c.want) > 1e-12 {
			t.Errorf("%s = %v, want %v", c.name, c.got, c.want)
		}
	}
}

func TestAccumulatorEmptyAndSingle(t *testing.T) {
	var a Accumulator
	if a.N() != 0 || a.Mean() != 0 || a.Variance() != 0 {
		t.Error("zero accumulator not zero-valued")
	}
	a.Add(7)
	if a.N() != 1 || a.Mean() != 7 || a.Variance() != 0 {
		t.Errorf("single-observation accumulator wrong: %+v", a)
	}
}

func TestStreamHistExactBelowCapacity(t *testing.T) {
	h, err := NewStreamHist(64)
	if err != nil {
		t.Fatal(err)
	}
	// 1..9 inserted out of order: with all points retained, the median is
	// exactly the middle value.
	for _, x := range []float64{9, 1, 8, 2, 7, 3, 6, 4, 5} {
		h.Add(x)
	}
	if got := h.Quantile(0.5); math.Abs(got-5) > 1e-12 {
		t.Errorf("median = %v, want 5", got)
	}
	if got := h.Quantile(0); got != 1 {
		t.Errorf("q0 = %v, want 1", got)
	}
	if got := h.Quantile(1); got != 9 {
		t.Errorf("q1 = %v, want 9", got)
	}
}

func TestStreamHistApproximatesQuantiles(t *testing.T) {
	h, err := NewStreamHist(32)
	if err != nil {
		t.Fatal(err)
	}
	// A deterministic non-uniform stream: x^2 over a scrambled order.
	const n = 5000
	for i := 0; i < n; i++ {
		j := (i*2654435761 + 7) % n // fixed permutation-ish scatter
		x := float64(j) / n
		h.Add(x * x)
	}
	for _, q := range []float64{0.1, 0.25, 0.5, 0.75, 0.9} {
		want := q * q // quantiles of U^2 with U uniform on [0,1)
		got := h.Quantile(q)
		if math.Abs(got-want) > 0.05 {
			t.Errorf("q%.2f = %v, want ≈ %v", q, got, want)
		}
	}
	// Monotone in q.
	prev := math.Inf(-1)
	for q := 0.0; q <= 1.0; q += 0.05 {
		v := h.Quantile(q)
		if v < prev-1e-12 {
			t.Fatalf("quantiles not monotone at q=%v", q)
		}
		prev = v
	}
}

func TestStreamHistDeterministic(t *testing.T) {
	run := func() []float64 {
		h, err := NewStreamHist(8)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 500; i++ {
			h.Add(math.Sin(float64(i)))
		}
		out := []float64{}
		for _, q := range []float64{0.1, 0.5, 0.9} {
			out = append(out, h.Quantile(q))
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("identical feeds diverge: %v vs %v", a, b)
		}
	}
}

func TestStreamHistRejectsTinyCapacity(t *testing.T) {
	if _, err := NewStreamHist(1); err == nil {
		t.Error("maxBins=1 accepted")
	}
}

func TestStreamHistEmpty(t *testing.T) {
	h, err := NewStreamHist(4)
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsNaN(h.Quantile(0.5)) {
		t.Error("empty sketch quantile not NaN")
	}
}

func TestHalfWidth(t *testing.T) {
	var a Accumulator
	// Known z-quantiles: 1.959964 (95%), 1.644854 (90%), 2.575829 (99%).
	for _, tc := range []struct{ conf, z float64 }{
		{0.95, 1.959964}, {0.90, 1.644854}, {0.99, 2.575829},
	} {
		if got := zQuantile((1 + tc.conf) / 2); math.Abs(got-tc.z) > 1e-5 {
			t.Fatalf("zQuantile for conf %v = %v, want %v", tc.conf, got, tc.z)
		}
	}

	if hw := a.HalfWidth(0.95); !math.IsInf(hw, 1) {
		t.Fatalf("empty accumulator HalfWidth = %v, want +Inf", hw)
	}
	a.Add(3)
	if hw := a.HalfWidth(0.95); !math.IsInf(hw, 1) {
		t.Fatalf("single-sample HalfWidth = %v, want +Inf", hw)
	}

	// 100 samples with stddev s: half-width must equal z·s/10.
	a = Accumulator{}
	for i := 0; i < 100; i++ {
		a.Add(float64(i % 10)) // mean 4.5, known variance
	}
	want := 1.959964 * a.Stddev() / 10
	if got := a.HalfWidth(0.95); math.Abs(got-want) > 1e-6 {
		t.Fatalf("HalfWidth(0.95) = %v, want %v", got, want)
	}
	// Wider confidence must widen the interval.
	if !(a.HalfWidth(0.99) > a.HalfWidth(0.95) && a.HalfWidth(0.95) > a.HalfWidth(0.90)) {
		t.Fatal("HalfWidth is not monotone in the confidence level")
	}

	defer func() {
		if recover() == nil {
			t.Fatal("HalfWidth accepted a confidence level outside (0, 1)")
		}
	}()
	a.HalfWidth(1.0)
}

func TestHalfWidthShrinksWithN(t *testing.T) {
	var small, large Accumulator
	for i := 0; i < 16; i++ {
		small.Add(float64(i % 4))
	}
	for i := 0; i < 1024; i++ {
		large.Add(float64(i % 4))
	}
	if !(large.HalfWidth(0.95) < small.HalfWidth(0.95)/4) {
		t.Fatalf("half-width did not shrink ~1/sqrt(n): n=16 %v vs n=1024 %v",
			small.HalfWidth(0.95), large.HalfWidth(0.95))
	}
}
