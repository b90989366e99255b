// Package xrand provides a small, fast, deterministic pseudo-random number
// generator together with the sampling primitives the simulator needs
// (k-distinct selection, shuffles, binomial and geometric variates).
//
// The generator is xoshiro256★★ seeded through SplitMix64, which gives
// high-quality 64-bit output from a single user-supplied seed and supports
// cheap "splitting": deriving independent child streams for per-node
// randomness in the concurrent runtime and for the per-shard streams of
// the sharded phone-call engine (internal/phonecall/parallel.go), whose
// reproducibility-across-worker-counts guarantee rests on Split being
// deterministic. All randomness in this repository flows through this
// package so that every simulation is reproducible from one seed; see
// DESIGN.md for the seeding discipline.
package xrand

import (
	"fmt"
	"math"
	"math/bits"
)

// Rand is a deterministic pseudo-random generator. It is NOT safe for
// concurrent use; derive per-goroutine generators with Split.
type Rand struct {
	s0, s1, s2, s3 uint64
}

// splitMix64 advances the given state and returns the next SplitMix64 output.
// It is used only for seeding, as recommended by the xoshiro authors.
func splitMix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// New returns a generator seeded deterministically from seed.
func New(seed uint64) *Rand {
	var r Rand
	r.Seed(seed)
	return &r
}

// Seed re-seeds the generator in place.
func (r *Rand) Seed(seed uint64) {
	sm := seed
	r.s0 = splitMix64(&sm)
	r.s1 = splitMix64(&sm)
	r.s2 = splitMix64(&sm)
	r.s3 = splitMix64(&sm)
	// xoshiro must not start from the all-zero state; SplitMix64 cannot
	// produce four consecutive zeros, but guard anyway.
	if r.s0|r.s1|r.s2|r.s3 == 0 {
		r.s0 = 1
	}
}

// Uint64 returns the next 64 random bits (xoshiro256★★ step).
func (r *Rand) Uint64() uint64 {
	result := bits.RotateLeft64(r.s1*5, 7) * 9
	t := r.s1 << 17
	r.s2 ^= r.s0
	r.s3 ^= r.s1
	r.s1 ^= r.s2
	r.s0 ^= r.s3
	r.s2 ^= t
	r.s3 = bits.RotateLeft64(r.s3, 45)
	return result
}

// Split returns a new generator whose stream is statistically independent of
// the parent's. The child is seeded from the parent's output, so splitting is
// itself deterministic.
func (r *Rand) Split() *Rand {
	return New(r.Uint64())
}

// SplitN derives n independent child generators in one deterministic pass.
// It is the seeding primitive of the batch replication engine: the children
// are precomputed in index order from the parent's stream, so child i is
// the same generator no matter how many workers later consume the slice —
// which is what makes replication ensembles bit-identical across worker
// counts.
func (r *Rand) SplitN(n int) []*Rand {
	out := make([]*Rand, n)
	for i := range out {
		out[i] = r.Split()
	}
	return out
}

// PairDraw is one pre-drawn ordered-pair interaction: two distinct values
// in [0, n) and a raw 64-bit coin word. It is the record type of the
// population engine's batched draw path (FillPairDraws); the fields are
// int32 to keep the record at 16 bytes, one quarter of a cache line.
type PairDraw struct {
	A, B int32
	Coin uint64
}

// step256 advances one xoshiro256★★ state held in locals and returns the
// output word plus the successor state. It is the register-resident twin
// of (*Rand).Uint64 — same update, same output — written as a pure
// function of values so batched samplers can keep the generator state in
// registers across a whole block instead of loading and storing the four
// state words through the Rand pointer on every draw. Any change to
// Uint64 must be mirrored here (TestFillPairDrawsMatchesScalar pins the
// equivalence).
func step256(s0, s1, s2, s3 uint64) (res, t0, t1, t2, t3 uint64) {
	res = bits.RotateLeft64(s1*5, 7) * 9
	t := s1 << 17
	s2 ^= s0
	s3 ^= s1
	s1 ^= s2
	s0 ^= s3
	s2 ^= t
	s3 = bits.RotateLeft64(s3, 45)
	return res, s0, s1, s2, s3
}

// lemire maps a raw 64-bit word onto [0, n) by Lemire's multiply-shift,
// reporting whether the draw landed in the rejection window (lo < n) and
// must be resolved by lemireReject. Split from the rejection loop so the
// batched samplers keep the overwhelmingly common accept case branch-free
// and inline.
func lemire(x, n uint64) (v, lo uint64) {
	hi, lo := bits.Mul64(x, n)
	return hi, lo
}

// FillPairDraws fills dst with ordered pairs of distinct values in
// [0, n) — uniform over the n·(n−1) ordered pairs — plus one raw coin
// word each, consuming the stream EXACTLY as the per-element sequence
//
//	a := r.IntN(n); b := r.IntN(n-1); if b >= a { b++ }; coin := r.Uint64()
//
// would: same draws, same values, in the same order, including Lemire
// rejection re-draws. Callers can therefore switch between the scalar
// loop and this batched one without changing a run's trace. The batching
// win is mechanical: the xoshiro state lives in registers for the whole
// block and the two Lemire reductions inline, instead of three
// pointer-bound generator calls per element. It panics if n < 2.
func (r *Rand) FillPairDraws(dst []PairDraw, n int) {
	if n < 2 {
		panic(fmt.Sprintf("xrand: FillPairDraws called with n=%d", n))
	}
	un := uint64(n)
	un1 := un - 1
	s0, s1, s2, s3 := r.s0, r.s1, r.s2, r.s3
	for i := range dst {
		var x uint64
		x, s0, s1, s2, s3 = step256(s0, s1, s2, s3)
		a, lo := lemire(x, un)
		if lo < un { // rejection window: resolve with scalar re-draws
			r.s0, r.s1, r.s2, r.s3 = s0, s1, s2, s3
			a = r.lemireReject(a, lo, un)
			s0, s1, s2, s3 = r.s0, r.s1, r.s2, r.s3
		}
		x, s0, s1, s2, s3 = step256(s0, s1, s2, s3)
		b, lo := lemire(x, un1)
		if lo < un1 {
			r.s0, r.s1, r.s2, r.s3 = s0, s1, s2, s3
			b = r.lemireReject(b, lo, un1)
			s0, s1, s2, s3 = r.s0, r.s1, r.s2, r.s3
		}
		if b >= a {
			b++
		}
		var coin uint64
		coin, s0, s1, s2, s3 = step256(s0, s1, s2, s3)
		dst[i] = PairDraw{A: int32(a), B: int32(b), Coin: coin}
	}
	r.s0, r.s1, r.s2, r.s3 = s0, s1, s2, s3
}

// lemireReject resolves a Lemire draw that landed in the rejection
// window, exactly as the tail of Uint64N does.
func (r *Rand) lemireReject(hi, lo, n uint64) uint64 {
	thresh := -n % n
	for lo < thresh {
		hi, lo = bits.Mul64(r.Uint64(), n)
	}
	return hi
}

// IntN returns a uniform integer in [0, n). It panics if n <= 0.
func (r *Rand) IntN(n int) int {
	if n <= 0 {
		panic(fmt.Sprintf("xrand: IntN called with n=%d", n))
	}
	return int(r.Uint64N(uint64(n)))
}

// Uint64N returns a uniform integer in [0, n) using Lemire's multiply-shift
// rejection method. It panics if n == 0.
func (r *Rand) Uint64N(n uint64) uint64 {
	if n == 0 {
		panic("xrand: Uint64N called with n=0")
	}
	hi, lo := bits.Mul64(r.Uint64(), n)
	if lo < n {
		thresh := -n % n
		for lo < thresh {
			hi, lo = bits.Mul64(r.Uint64(), n)
		}
	}
	return hi
}

// Float64 returns a uniform float64 in [0, 1).
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Bool returns true with probability p.
func (r *Rand) Bool(p float64) bool {
	switch {
	case p <= 0:
		return false
	case p >= 1:
		return true
	default:
		return r.Float64() < p
	}
}

// NormFloat64 returns a standard normal variate (Marsaglia polar method).
func (r *Rand) NormFloat64() float64 {
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s > 0 && s < 1 {
			return u * math.Sqrt(-2*math.Log(s)/s)
		}
	}
}

// Shuffle randomises the order of n elements using the provided swap
// function (Fisher-Yates).
func (r *Rand) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.IntN(i + 1)
		swap(i, j)
	}
}

// DistinctK fills dst with k distinct uniform values from [0, n) and returns
// dst[:k]. It panics if k > n or k < 0. The selection is a partial
// Fisher-Yates over a caller-reusable scratch slice: if scratch has capacity
// >= n it is reused, avoiding allocation on hot paths.
//
// The returned values are in random order (each k-subset and each ordering
// is equally likely).
func (r *Rand) DistinctK(dst []int, k, n int, scratch []int) []int {
	if k < 0 || k > n {
		panic(fmt.Sprintf("xrand: DistinctK k=%d n=%d", k, n))
	}
	dst = dst[:0]
	if k == 0 {
		return dst
	}
	// For very sparse selection, rejection sampling beats O(n) setup.
	if rejectionRegime(k, n) {
		return r.distinctKRejection(dst, k, n)
	}
	if cap(scratch) < n {
		scratch = make([]int, n)
	}
	scratch = scratch[:n]
	for i := range scratch {
		scratch[i] = i
	}
	for i := 0; i < k; i++ {
		j := i + r.IntN(n-i)
		scratch[i], scratch[j] = scratch[j], scratch[i]
		dst = append(dst, scratch[i])
	}
	return dst
}

// rejectionRegime reports whether a k-of-n distinct selection samples by
// rejection rather than partial Fisher–Yates. It is THE regime predicate:
// DistinctK and distinctSmall share it, which is what keeps the small-k
// samplers stream-compatible with DistinctK if the threshold is ever
// tuned. (Note for k <= 4 it reduces to n >= 64.)
func rejectionRegime(k, n int) bool {
	return n >= 64 && k*8 <= n
}

// distinctKRejection draws k distinct values by rejection; only used when k
// is small relative to n so the expected number of retries is O(1).
func (r *Rand) distinctKRejection(dst []int, k, n int) []int {
	for len(dst) < k {
		v := r.IntN(n)
		dup := false
		for _, u := range dst {
			if u == v {
				dup = true
				break
			}
		}
		if !dup {
			dst = append(dst, v)
		}
	}
	return dst
}

// distinctSmall returns k <= 4 distinct uniform values from [0, n) (the
// results past the k-th are zero), consuming the stream EXACTLY as DistinctK
// would: the same rejection-vs-Fisher–Yates branch condition and, per
// branch, the same draws in the same order. Callers can therefore switch
// between the two without changing a run's trace. Unlike DistinctK it never
// allocates and touches no scratch: the rejection regime (n >= 64 whenever
// k <= 4) checks duplicates against the values already drawn, and the
// Fisher–Yates regime (n < 64 — every degree the paper's d <= δ·log n
// setting produces) runs shuffleSmall's virtual shuffle.
func (r *Rand) distinctSmall(k, n int) (a, b, c, d int) {
	if k < 0 || k > n || k > 4 {
		panic(fmt.Sprintf("xrand: distinctSmall k=%d n=%d", k, n))
	}
	if !rejectionRegime(k, n) {
		return r.shuffleSmall(k, n)
	}
	var out [4]int
	filled := 0
	for filled < k {
		v := r.IntN(n)
		dup := false
		for t := 0; t < filled; t++ {
			if out[t&3] == v {
				dup = true
				break
			}
		}
		if !dup {
			out[filled&3] = v
			filled++
		}
	}
	return out[0], out[1], out[2], out[3]
}

// shuffleSmall is DistinctK's partial Fisher–Yates for k <= 4 over a
// VIRTUAL identity array. Stage i draws j = i + IntN(n-i), returns the
// value at position j and moves the value at position i there; position i
// itself is never read again (later stages draw j > i). So the whole array
// is "p holds p" except at the j of each earlier stage: stage 0 left 0 at
// position a, stage 1 left x1 at j1, stage 2 left x2 at j2, and a lookup
// is at most three conditional moves, oldest displacement first so the
// newest wins. One unrolled body with an early-out after stage k; the
// generator state stays in registers for the whole row (step256) and is
// stored once at the end, so a draw in the Lemire rejection window
// (probability n/2^64 per draw) simply abandons the row to the scalar
// path, from the untouched state in r.
func (r *Rand) shuffleSmall(k, n int) (a, b, c, d int) {
	if k == 0 {
		return
	}
	un := uint64(n)
	x, s0, s1, s2, s3 := step256(r.s0, r.s1, r.s2, r.s3)
	hi, lo := lemire(x, un)
	if lo < un {
		return r.shuffleSmallScalar(k, n)
	}
	a = int(hi)
	if k > 1 {
		x, s0, s1, s2, s3 = step256(s0, s1, s2, s3)
		hi, lo = lemire(x, un-1)
		if lo < un-1 {
			return r.shuffleSmallScalar(k, n)
		}
		j1 := int(hi) + 1
		b = j1
		if j1 == a {
			b = 0
		}
		if k > 2 {
			x1 := 1 // what position 1 held, now at j1
			if a == 1 {
				x1 = 0
			}
			x, s0, s1, s2, s3 = step256(s0, s1, s2, s3)
			hi, lo = lemire(x, un-2)
			if lo < un-2 {
				return r.shuffleSmallScalar(k, n)
			}
			j2 := int(hi) + 2
			c = j2
			if j2 == a {
				c = 0
			}
			if j2 == j1 {
				c = x1
			}
			if k > 3 {
				x2 := 2 // what position 2 held, now at j2
				if a == 2 {
					x2 = 0
				}
				if j1 == 2 {
					x2 = x1
				}
				x, s0, s1, s2, s3 = step256(s0, s1, s2, s3)
				hi, lo = lemire(x, un-3)
				if lo < un-3 {
					return r.shuffleSmallScalar(k, n)
				}
				j3 := int(hi) + 3
				d = j3
				if j3 == a {
					d = 0
				}
				if j3 == j1 {
					d = x1
				}
				if j3 == j2 {
					d = x2
				}
			}
		}
	}
	r.s0, r.s1, r.s2, r.s3 = s0, s1, s2, s3
	return a, b, c, d
}

// shuffleSmallScalar is the row shuffleSmall abandons: DistinctK itself,
// over a stack scratch (n < 64 is what makes it fixed-size).
func (r *Rand) shuffleSmallScalar(k, n int) (a, b, c, d int) {
	var scratch [64]int
	var out [4]int
	r.DistinctK(out[:0], k, n, scratch[:])
	return out[0], out[1], out[2], out[3]
}

// Distinct2 returns two distinct uniform values from [0, n) without
// allocating. It is stream-compatible with DistinctK(dst, 2, n, scratch):
// same draws, same values, in the same order. It panics if n < 2.
func (r *Rand) Distinct2(n int) (a, b int) {
	a, b, _, _ = r.distinctSmall(2, n)
	return a, b
}

// Distinct3 is Distinct2 for three values. It panics if n < 3.
func (r *Rand) Distinct3(n int) (a, b, c int) {
	a, b, c, _ = r.distinctSmall(3, n)
	return a, b, c
}

// Distinct4 is Distinct2 for four values — the paper's four-choice dial,
// one scratch-free row at any degree. It panics if n < 4.
func (r *Rand) Distinct4(n int) (a, b, c, d int) {
	return r.distinctSmall(4, n)
}

// SkipRows advances the stream past count rows of k <= 4 values from
// [0, n), leaving it EXACTLY where count calls of IntN(n) (k == 1) or
// Distinct2/3/4(n) (k = 2..4) would, without computing a value. A row is
// k draws whose only effect on the stream is whether one lands in its
// Lemire window, so the generator state stays in registers (step256) and
// only a row with a window draw goes back to the scalar sampler
// (distinctSmall, which is IntN at k == 1), from the row's first state. A
// power-of-two n has an empty rejection set, so its one-draw rows are one
// step each. The rejection regime (k > 1, n >= 64) redraws a duplicate,
// which needs the values: there every row is a distinctSmall call. It
// panics unless 1 <= k <= min(4, n) or count <= 0.
func (r *Rand) SkipRows(k, n, count int) {
	if count <= 0 {
		return
	}
	if k < 1 || k > 4 || k > n {
		panic(fmt.Sprintf("xrand: SkipRows k=%d n=%d", k, n))
	}
	if k > 1 && rejectionRegime(k, n) {
		for ; count > 0; count-- {
			r.distinctSmall(k, n)
		}
		return
	}
	s0, s1, s2, s3 := r.s0, r.s1, r.s2, r.s3
	if k == 1 && n&(n-1) == 0 {
		for ; count > 0; count-- {
			_, s0, s1, s2, s3 = step256(s0, s1, s2, s3)
		}
	}
	un := uint64(n)
	for ; count > 0; count-- {
		t0, t1, t2, t3 := s0, s1, s2, s3
		for i := uint64(0); i < uint64(k); i++ {
			var x uint64
			x, t0, t1, t2, t3 = step256(t0, t1, t2, t3)
			if _, lo := lemire(x, un-i); lo < un-i {
				r.s0, r.s1, r.s2, r.s3 = s0, s1, s2, s3
				r.distinctSmall(k, n)
				t0, t1, t2, t3 = r.s0, r.s1, r.s2, r.s3
				break
			}
		}
		s0, s1, s2, s3 = t0, t1, t2, t3
	}
	r.s0, r.s1, r.s2, r.s3 = s0, s1, s2, s3
}

// Binomial returns a Binomial(n, p) variate. For small n it sums Bernoulli
// trials; for large n it uses a normal approximation with continuity
// correction, clamped to [0, n]. The approximation is adequate for the
// statistical sanity checks in this repository (not for cryptography or
// exact tail computations).
func (r *Rand) Binomial(n int, p float64) int {
	if n <= 0 || p <= 0 {
		return 0
	}
	if p >= 1 {
		return n
	}
	if n <= 64 {
		c := 0
		for i := 0; i < n; i++ {
			if r.Float64() < p {
				c++
			}
		}
		return c
	}
	mean := float64(n) * p
	sd := math.Sqrt(mean * (1 - p))
	v := int(math.Round(mean + sd*r.NormFloat64()))
	if v < 0 {
		v = 0
	}
	if v > n {
		v = n
	}
	return v
}

// Geometric returns the number of failures before the first success in
// Bernoulli(p) trials (support {0, 1, 2, ...}). It panics if p <= 0 or p > 1.
func (r *Rand) Geometric(p float64) int {
	if p <= 0 || p > 1 {
		panic(fmt.Sprintf("xrand: Geometric p=%v", p))
	}
	if p == 1 {
		return 0
	}
	u := r.Float64()
	for u == 0 {
		u = r.Float64()
	}
	return int(math.Floor(math.Log(u) / math.Log(1-p)))
}
