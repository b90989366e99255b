package graph

import (
	"math"
	"testing"
)

// FuzzRegularStreamInverse drives the stream's one permutation body over
// arbitrary (n, d, seed): every slot must land in [0,n) and slot i^1
// must undo slot i — the whole Implicit contract of the family, at any
// Feistel width. Inputs are folded into the constructor's valid ranges.
func FuzzRegularStreamInverse(f *testing.F) {
	for _, n := range []int{3, 1<<2 + 1, 1<<9 - 1, 1<<9 + 1, 1<<17 - 1, 1<<17 + 1, 1<<27 - 1, 1<<27 + 1, math.MaxInt32} {
		f.Add(n, 2, uint64(n), n-1, 1)
		f.Add(n, 16, uint64(1), 0, 14)
	}
	f.Fuzz(func(t *testing.T, n, d int, seed uint64, v, i int) {
		n = 3 + int(uint(n)%(math.MaxInt32-2))
		d = 2 + 2*int(uint(d)%uint(min((n-1)/2, 32)))
		v = int(uint(v) % uint(n))
		i = int(uint(i) % uint(d))
		g, err := NewRegularStream(n, d, seed)
		if err != nil {
			t.Fatalf("n=%d d=%d rejected: %v", n, d, err)
		}
		w := int(g.NeighborAt(v, i))
		if w < 0 || w >= n {
			t.Fatalf("n=%d d=%d seed=%d: NeighborAt(%d,%d) = %d out of range", n, d, seed, v, i, w)
		}
		if back := int(g.NeighborAt(w, i^1)); back != v {
			t.Fatalf("n=%d d=%d seed=%d: slot %d then %d maps %d to %d to %d", n, d, seed, i, i^1, v, w, back)
		}
	})
}
