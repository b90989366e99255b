package xrand

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 1000; i++ {
		if av, bv := a.Uint64(), b.Uint64(); av != bv {
			t.Fatalf("step %d: streams diverged: %d != %d", i, av, bv)
		}
	}
}

func TestSeedsDiffer(t *testing.T) {
	a := New(1)
	b := New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("different seeds produced %d identical outputs in 100 draws", same)
	}
}

func TestSplitIndependence(t *testing.T) {
	parent := New(7)
	c1 := parent.Split()
	c2 := parent.Split()
	for i := 0; i < 100; i++ {
		if c1.Uint64() == c2.Uint64() {
			t.Fatalf("split children collided at step %d", i)
		}
	}
}

func TestSplitNMatchesSequentialSplits(t *testing.T) {
	a := New(11)
	b := New(11)
	got := a.SplitN(5)
	for i := 0; i < 5; i++ {
		want := b.Split()
		for step := 0; step < 10; step++ {
			if g, w := got[i].Uint64(), want.Uint64(); g != w {
				t.Fatalf("SplitN child %d diverges from sequential Split at step %d: %d != %d", i, step, g, w)
			}
		}
	}
	// The parent streams must also agree afterwards.
	if a.Uint64() != b.Uint64() {
		t.Error("parent streams diverge after SplitN vs sequential splits")
	}
}

func TestSplitNEmpty(t *testing.T) {
	if out := New(1).SplitN(0); len(out) != 0 {
		t.Fatalf("SplitN(0) returned %d children", len(out))
	}
}

func TestIntNRange(t *testing.T) {
	r := New(3)
	for _, n := range []int{1, 2, 3, 7, 100, 1 << 20} {
		for i := 0; i < 200; i++ {
			v := r.IntN(n)
			if v < 0 || v >= n {
				t.Fatalf("IntN(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestIntNPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("IntN(0) did not panic")
		}
	}()
	New(1).IntN(0)
}

func TestIntNUniformity(t *testing.T) {
	r := New(11)
	const n, draws = 10, 100000
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		counts[r.IntN(n)]++
	}
	want := float64(draws) / n
	for i, c := range counts {
		if math.Abs(float64(c)-want) > 5*math.Sqrt(want) {
			t.Errorf("bucket %d: count %d too far from %v", i, c, want)
		}
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(5)
	sum := 0.0
	const draws = 100000
	for i := 0; i < draws; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 = %v out of [0,1)", f)
		}
		sum += f
	}
	if mean := sum / draws; math.Abs(mean-0.5) > 0.01 {
		t.Errorf("Float64 mean = %v, want about 0.5", mean)
	}
}

func TestBoolEdgeCases(t *testing.T) {
	r := New(9)
	for i := 0; i < 100; i++ {
		if r.Bool(0) {
			t.Fatal("Bool(0) returned true")
		}
		if !r.Bool(1) {
			t.Fatal("Bool(1) returned false")
		}
	}
}

func TestBoolProbability(t *testing.T) {
	r := New(13)
	const draws = 100000
	hits := 0
	for i := 0; i < draws; i++ {
		if r.Bool(0.3) {
			hits++
		}
	}
	if p := float64(hits) / draws; math.Abs(p-0.3) > 0.01 {
		t.Errorf("Bool(0.3) empirical rate %v", p)
	}
}

func TestShuffleIsPermutation(t *testing.T) {
	r := New(21)
	for _, n := range []int{0, 1, 2, 10, 257} {
		p := make([]int, n)
		for i := range p {
			p[i] = i
		}
		r.Shuffle(n, func(i, j int) { p[i], p[j] = p[j], p[i] })
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				t.Fatalf("Shuffle(%d) invalid element %d", n, v)
			}
			seen[v] = true
		}
	}
}

func TestDistinctKProperty(t *testing.T) {
	r := New(33)
	prop := func(seed uint64, kRaw, nRaw uint8) bool {
		n := int(nRaw%200) + 1
		k := int(kRaw) % (n + 1)
		rr := New(seed)
		got := rr.DistinctK(nil, k, n, nil)
		if len(got) != k {
			return false
		}
		seen := map[int]bool{}
		for _, v := range got {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500, Rand: nil}); err != nil {
		t.Error(err)
	}
	_ = r
}

func TestDistinctKFullSelection(t *testing.T) {
	r := New(44)
	got := r.DistinctK(nil, 10, 10, nil)
	seen := make([]bool, 10)
	for _, v := range got {
		seen[v] = true
	}
	for i, s := range seen {
		if !s {
			t.Fatalf("DistinctK(10,10) missing %d", i)
		}
	}
}

func TestDistinctKScratchReuse(t *testing.T) {
	r := New(55)
	scratch := make([]int, 16)
	dst := make([]int, 0, 4)
	for i := 0; i < 100; i++ {
		out := r.DistinctK(dst, 4, 16, scratch)
		if len(out) != 4 {
			t.Fatalf("len=%d", len(out))
		}
	}
}

func TestDistinctKUniformMarginals(t *testing.T) {
	// Each element of [0,n) should appear in a k-subset with probability k/n.
	r := New(66)
	const n, k, draws = 12, 4, 60000
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		for _, v := range r.DistinctK(nil, k, n, nil) {
			counts[v]++
		}
	}
	want := float64(draws) * k / n
	for i, c := range counts {
		if math.Abs(float64(c)-want) > 6*math.Sqrt(want) {
			t.Errorf("element %d chosen %d times, want about %v", i, c, want)
		}
	}
}

func TestDistinctKRejectionPath(t *testing.T) {
	// k*8 <= n and n >= 64 exercises the rejection branch.
	r := New(77)
	got := r.DistinctK(nil, 5, 1000, nil)
	seen := map[int]bool{}
	for _, v := range got {
		if v < 0 || v >= 1000 || seen[v] {
			t.Fatalf("rejection path produced invalid sample %v", got)
		}
		seen[v] = true
	}
}

func TestBinomialMoments(t *testing.T) {
	r := New(88)
	cases := []struct {
		n int
		p float64
	}{{20, 0.5}, {50, 0.1}, {1000, 0.3}, {10000, 0.01}}
	for _, c := range cases {
		const draws = 3000
		sum := 0.0
		for i := 0; i < draws; i++ {
			v := r.Binomial(c.n, c.p)
			if v < 0 || v > c.n {
				t.Fatalf("Binomial(%d,%v) = %d out of range", c.n, c.p, v)
			}
			sum += float64(v)
		}
		mean := sum / draws
		want := float64(c.n) * c.p
		sd := math.Sqrt(want * (1 - c.p))
		if math.Abs(mean-want) > 6*sd/math.Sqrt(draws)*math.Sqrt(draws)*0.2+4*sd/math.Sqrt(draws) {
			// generous tolerance: 4 standard errors plus 20% of sd
			t.Errorf("Binomial(%d,%v) mean %v, want about %v", c.n, c.p, mean, want)
		}
	}
}

func TestBinomialEdgeCases(t *testing.T) {
	r := New(99)
	if got := r.Binomial(0, 0.5); got != 0 {
		t.Errorf("Binomial(0,.5)=%d", got)
	}
	if got := r.Binomial(10, 0); got != 0 {
		t.Errorf("Binomial(10,0)=%d", got)
	}
	if got := r.Binomial(10, 1); got != 10 {
		t.Errorf("Binomial(10,1)=%d", got)
	}
}

func TestGeometricMean(t *testing.T) {
	r := New(101)
	const p, draws = 0.25, 50000
	sum := 0.0
	for i := 0; i < draws; i++ {
		sum += float64(r.Geometric(p))
	}
	mean := sum / draws
	want := (1 - p) / p // 3
	if math.Abs(mean-want) > 0.15 {
		t.Errorf("Geometric(%v) mean %v want %v", p, mean, want)
	}
}

func TestGeometricOne(t *testing.T) {
	r := New(103)
	for i := 0; i < 50; i++ {
		if v := r.Geometric(1); v != 0 {
			t.Fatalf("Geometric(1) = %d", v)
		}
	}
}

func TestNormFloat64Moments(t *testing.T) {
	r := New(107)
	const draws = 100000
	sum, sumSq := 0.0, 0.0
	for i := 0; i < draws; i++ {
		v := r.NormFloat64()
		sum += v
		sumSq += v * v
	}
	mean := sum / draws
	variance := sumSq/draws - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Errorf("normal mean %v", mean)
	}
	if math.Abs(variance-1) > 0.03 {
		t.Errorf("normal variance %v", variance)
	}
}

func TestSeedAllZeroGuard(t *testing.T) {
	var r Rand
	r.Seed(0)
	if r.s0|r.s1|r.s2|r.s3 == 0 {
		t.Fatal("all-zero internal state after Seed(0)")
	}
	// Must still produce varied output.
	a, b := r.Uint64(), r.Uint64()
	if a == b {
		t.Fatalf("degenerate output %d %d", a, b)
	}
}

func BenchmarkUint64(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		_ = r.Uint64()
	}
}

func BenchmarkDistinctK4of16(b *testing.B) {
	r := New(1)
	dst := make([]int, 0, 4)
	scratch := make([]int, 16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst = r.DistinctK(dst, 4, 16, scratch)
	}
}

// BenchmarkDistinct4SmallDegree is the four-choice row the engine's fast
// path draws at the paper's degrees (the churn cell's d = 8, the dense
// cell's d = 16); BenchmarkDistinctK4of16 above is what it replaced there.
func BenchmarkDistinct4SmallDegree(b *testing.B) {
	for _, n := range []int{8, 16} {
		b.Run(fmt.Sprintf("deg=%d", n), func(b *testing.B) {
			r := New(1)
			var sink int
			for i := 0; i < b.N; i++ {
				a, _, _, d := r.Distinct4(n)
				sink += a + d
			}
			_ = sink
		})
	}
}

// TestFillPairDrawsMatchesScalar pins the batched pair sampler to the
// scalar draw sequence it documents: same stream consumption, same
// values, same final generator state. Small n values make Lemire
// rejections (probability n/2^64 per draw) unreachable either way, so
// the equivalence being tested is the register-resident step/reduce
// pipeline, including the b >= a adjustment.
func TestFillPairDrawsMatchesScalar(t *testing.T) {
	for _, n := range []int{2, 3, 7, 100, 1 << 20} {
		batched := New(uint64(n) * 77)
		scalar := New(uint64(n) * 77)

		dst := make([]PairDraw, 257)
		batched.FillPairDraws(dst, n)
		for i, d := range dst {
			a := scalar.IntN(n)
			b := scalar.IntN(n - 1)
			if b >= a {
				b++
			}
			coin := scalar.Uint64()
			if int(d.A) != a || int(d.B) != b || d.Coin != coin {
				t.Fatalf("n=%d draw %d: batched (%d,%d,%x) != scalar (%d,%d,%x)",
					n, i, d.A, d.B, d.Coin, a, b, coin)
			}
			if d.A == d.B {
				t.Fatalf("n=%d draw %d: pair not distinct", n, i)
			}
		}
		if b0, s0 := batched.Uint64(), scalar.Uint64(); b0 != s0 {
			t.Fatalf("n=%d: stream positions diverged after the block", n)
		}
	}
}
