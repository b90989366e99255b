package xrand

import "testing"

// FuzzDistinctK drives DistinctK with arbitrary parameters and verifies
// the core contract: exactly k distinct in-range values, regardless of
// seed, k/n combination or scratch capacity. In the Fisher–Yates regime
// (n < 64) it also holds the small samplers to DistinctK, k = 1…4.
func FuzzDistinctK(f *testing.F) {
	f.Add(uint64(1), uint16(4), uint16(16), uint8(0))
	f.Add(uint64(2), uint16(0), uint16(1), uint8(3))
	f.Add(uint64(3), uint16(100), uint16(100), uint8(50))
	f.Add(uint64(4), uint16(5), uint16(1000), uint8(0))
	f.Add(uint64(5), uint16(3), uint16(7), uint8(0)) // n = 8: the small samplers' virtual shuffle
	f.Fuzz(func(t *testing.T, seed uint64, kRaw, nRaw uint16, scratchCap uint8) {
		n := int(nRaw)%2000 + 1
		k := int(kRaw) % (n + 1)
		r := New(seed)
		scratch := make([]int, int(scratchCap))
		got := r.DistinctK(nil, k, n, scratch)
		if len(got) != k {
			t.Fatalf("len = %d, want %d", len(got), k)
		}
		seen := make(map[int]bool, k)
		for _, v := range got {
			if v < 0 || v >= n {
				t.Fatalf("value %d out of [0,%d)", v, n)
			}
			if seen[v] {
				t.Fatalf("duplicate %d", v)
			}
			seen[v] = true
		}
		if n < 64 {
			for ks := 1; ks <= 4 && ks <= n; ks++ {
				checkSmallMatchesDistinctK(t, New(seed), New(seed), ks, n)
			}
		}
	})
}

// FuzzSkipRows holds SkipRows to the samplers it stands in for (IntN,
// Distinct2/3/4) at any k = 1…4, degree, row count and seed; a non-zero
// window byte starts from a state whose draw number window-1 lands in the
// Lemire window (zeroAt).
func FuzzSkipRows(f *testing.F) {
	f.Add(uint64(1), uint8(0), uint16(16), uint8(9), uint8(0))
	f.Add(uint64(2), uint8(3), uint16(13), uint8(4), uint8(6))
	f.Add(uint64(3), uint8(1), uint16(100), uint8(3), uint8(2))
	f.Fuzz(func(t *testing.T, seed uint64, kRaw uint8, nRaw uint16, countRaw, window uint8) {
		k := 1 + int(kRaw)%4
		n := k + int(nRaw)%5000
		r := *New(seed)
		if window > 0 {
			r = zeroAt(int(window)-1, seed)
		}
		checkSkipRows(t, r, k, n, int(countRaw)%64)
	})
}

// FuzzUint64N verifies range correctness of the Lemire reduction.
func FuzzUint64N(f *testing.F) {
	f.Add(uint64(1), uint64(1))
	f.Add(uint64(2), uint64(7))
	f.Add(uint64(3), uint64(1<<63))
	f.Fuzz(func(t *testing.T, seed, n uint64) {
		if n == 0 {
			return
		}
		r := New(seed)
		for i := 0; i < 16; i++ {
			if v := r.Uint64N(n); v >= n {
				t.Fatalf("Uint64N(%d) = %d", n, v)
			}
		}
	})
}
