package xrand

import (
	"fmt"
	"math/bits"
	"testing"
)

// distinctSmallVia draws k <= 4 values through IntN or Distinct2/3/4, the
// calls the phone-call fast path makes.
func distinctSmallVia(r *Rand, k, n int) []int {
	var got [4]int
	switch k {
	case 1:
		got[0] = r.IntN(n)
	case 2:
		got[0], got[1] = r.Distinct2(n)
	case 3:
		got[0], got[1], got[2] = r.Distinct3(n)
	case 4:
		got[0], got[1], got[2], got[3] = r.Distinct4(n)
	}
	return got[:k]
}

// checkSmallMatchesDistinctK runs DistinctK on ra and the small sampler on
// rb (generators in identical states) and fails unless values, order and
// the next word of both streams agree.
func checkSmallMatchesDistinctK(t *testing.T, ra, rb *Rand, k, n int) {
	t.Helper()
	want := ra.DistinctK(nil, k, n, nil)
	got := distinctSmallVia(rb, k, n)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("k=%d n=%d: small sampler %v, DistinctK %v", k, n, got, want)
		}
	}
	if ra.Uint64() != rb.Uint64() {
		t.Fatalf("k=%d n=%d: stream positions diverged", k, n)
	}
}

// TestDistinctSmallMatchesDistinctK is the stream-compatibility contract
// of the small-k samplers: for every k in {1,…,4}, every n of the
// Fisher–Yates regime (k <= n < 64, the virtual shuffle) and sizes past
// the rejection threshold, the sampler the fast path calls must return the
// same values as DistinctK in the same order AND leave the generator in
// the same state (checked by drawing one more word from both streams).
// This is what lets the phone-call fast path swap samplers without
// changing a run's trace.
func TestDistinctSmallMatchesDistinctK(t *testing.T) {
	var sizes []int
	for n := 1; n < 64; n++ {
		sizes = append(sizes, n)
	}
	sizes = append(sizes, 64, 65, 100, 1000)
	for k := 1; k <= 4; k++ {
		for _, n := range sizes {
			if n < k {
				continue
			}
			t.Run(fmt.Sprintf("k=%d/n=%d", k, n), func(t *testing.T) {
				for seed := uint64(1); seed <= 200; seed++ {
					checkSmallMatchesDistinctK(t, New(seed), New(seed), k, n)
				}
			})
		}
	}
}

// unstep returns the state whose successor, one Uint64 call later, is r.
func unstep(r Rand) Rand {
	s3 := bits.RotateLeft64(r.s3, -45) // p3 ^ p1
	y := r.s1 ^ r.s2                   // p1 ^ p1<<17
	p1 := y ^ y<<17 ^ y<<34 ^ y<<51
	p0 := r.s0 ^ s3
	return Rand{p0, p1, r.s1 ^ p1 ^ p0, s3 ^ p1}
}

// TestDistinctSmallLemireRejection hits the Lemire rejection window at
// each of the virtual shuffle's four stages. A window draw has probability
// n/2^64, so the row is built backwards: a state with s1 = 0 outputs the
// word 0 (lo = 0 < n), and unstepping it i times puts that word at stage i.
// Power-of-two n has an empty rejection set (the window is entered, no
// re-draw follows); the others re-draw.
func TestDistinctSmallLemireRejection(t *testing.T) {
	if prev := unstep(*New(3)); prev.Uint64() == 0 || prev != *New(3) {
		t.Fatal("unstep does not invert the generator step")
	}
	for stage := 0; stage < 4; stage++ {
		start := Rand{0x9e3779b97f4a7c15, 0, 0xbf58476d1ce4e5b9, 0x94d049bb133111eb}
		for i := 0; i < stage; i++ {
			start = unstep(start)
		}
		probe := start
		for i := 0; i < stage; i++ {
			probe.Uint64()
		}
		if probe.s1 != 0 {
			t.Fatalf("stage %d's draw does not come from s1 = 0", stage)
		}
		for _, n := range []int{4, 5, 13, 16, 63} {
			for k := stage + 1; k <= 4; k++ {
				ra, rb := start, start
				checkSmallMatchesDistinctK(t, &ra, &rb, k, n)
			}
		}
	}
}

// TestDistinctSmallDistinctness checks the values really are distinct and
// in range on both branches (Fisher–Yates n < 64, rejection n >= 64).
func TestDistinctSmallDistinctness(t *testing.T) {
	r := New(9)
	for _, n := range []int{4, 5, 16, 64, 200} {
		for trial := 0; trial < 200; trial++ {
			a, b, c, d := r.Distinct4(n)
			vals := [4]int{a, b, c, d}
			for i, v := range vals {
				if v < 0 || v >= n {
					t.Fatalf("n=%d: value %d out of range", n, v)
				}
				for j := i + 1; j < 4; j++ {
					if v == vals[j] {
						t.Fatalf("n=%d: duplicate value %d at positions %d,%d", n, v, i, j)
					}
				}
			}
		}
	}
}

// TestDistinctSmallCoverage is a cheap uniformity smoke: over many draws
// of Distinct2 on a small range every ordered pair must appear. (The
// distributional guarantees proper are inherited from DistinctK through
// the draw-for-draw equivalence pinned above.)
func TestDistinctSmallCoverage(t *testing.T) {
	const n = 5
	r := New(11)
	seen := map[[2]int]int{}
	for trial := 0; trial < 4000; trial++ {
		a, b := r.Distinct2(n)
		seen[[2]int{a, b}]++
	}
	if len(seen) != n*(n-1) {
		t.Fatalf("saw %d ordered pairs, want %d", len(seen), n*(n-1))
	}
}

// TestDistinctSmallPanics pins the k > n guard.
func TestDistinctSmallPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Distinct4(3) did not panic")
		}
	}()
	New(1).Distinct4(3)
}

// skipSizes are the degrees the SkipRows tests cover: every n of the
// virtual shuffle (n < 64), powers of two past it (an empty rejection set)
// and other sizes of the rejection regime.
var skipSizes = func() []int {
	var sizes []int
	for n := 1; n < 64; n++ {
		sizes = append(sizes, n)
	}
	return append(sizes, 64, 65, 100, 128, 1000, 1024, 4095)
}()

// checkSkipRows fails unless r.SkipRows(k, n, count) leaves r's state
// exactly where count sampler calls (distinctSmallVia) leave a copy of it.
func checkSkipRows(t *testing.T, r Rand, k, n, count int) {
	t.Helper()
	want, got := r, r
	for range count {
		distinctSmallVia(&want, k, n)
	}
	got.SkipRows(k, n, count)
	if got != want {
		t.Fatalf("k=%d n=%d count=%d: SkipRows left %+v, the samplers %+v", k, n, count, got, want)
	}
}

// TestSkipRowsMatchesSamplers is SkipRows' contract: for every k in
// {1,…,4} and every skipSizes n >= k, passing count rows leaves the
// generator where count calls of the sampler the phone-call word kernel
// makes (IntN, Distinct2/3/4) leave it.
func TestSkipRowsMatchesSamplers(t *testing.T) {
	for k := 1; k <= 4; k++ {
		for _, n := range skipSizes {
			if n < k {
				continue
			}
			for seed := uint64(1); seed <= 20; seed++ {
				for _, count := range []int{0, 1, 2, 7, 33} {
					checkSkipRows(t, *New(seed), k, n, count)
				}
			}
		}
	}
}

// zeroAt is a state whose draw number i (from 0) is the word 0, which lands
// in the Lemire window of every n (lo = 0 < n): a state with s1 = 0
// outputs 0, unstepped i times (TestDistinctSmallLemireRejection's trick).
// s0 keeps the state off all-zero.
func zeroAt(i int, s0 uint64) Rand {
	r := Rand{s0 | 1, 0, 0xbf58476d1ce4e5b9, 0x94d049bb133111eb}
	for range i {
		r = unstep(r)
	}
	return r
}

// TestSkipRowsLemireWindow puts a window draw at every draw position of the
// first four rows, so each stage of a row hands it to the scalar sampler:
// a power-of-two n enters the window without a redraw, the others redraw,
// and at n >= 64 the rejection regime (k > 1) draws every row's values.
func TestSkipRowsLemireWindow(t *testing.T) {
	for pos := 0; pos < 16; pos++ {
		start := zeroAt(pos, 0x9e3779b97f4a7c15)
		probe := start
		for range pos {
			probe.Uint64()
		}
		if probe.Uint64() != 0 {
			t.Fatalf("draw %d of the start state is not 0", pos)
		}
		for k := 1; k <= 4; k++ {
			for _, n := range []int{4, 5, 13, 16, 63, 64, 100, 1024} {
				checkSkipRows(t, start, k, n, 4)
			}
		}
	}
}
