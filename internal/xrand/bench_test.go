package xrand

import (
	"fmt"
	"testing"
)

// BenchmarkDistinctK measures the k-distinct samplers in isolation, so
// sampler regressions are visible without running a full simulation. The
// grid covers the engine's real workloads: k in {1, 2, 4} (standard dial,
// two-choice, the paper's four-choice) at deg = 16 (the scale-bench
// degree, Fisher–Yates branch) and deg = 4095 (a complete-graph-like
// degree, rejection branch). "generic" is the DistinctK path the
// reference engine uses; "small" is the Distinct2/3/4 fast path (IntN for
// k = 1); "skip" passes one such row without its values (SkipRows).
func BenchmarkDistinctK(b *testing.B) {
	for _, k := range []int{1, 2, 4} {
		for _, n := range []int{16, 4095} {
			b.Run(fmt.Sprintf("generic/k=%d/deg=%d", k, n), func(b *testing.B) {
				r := New(1)
				dst := make([]int, 0, k)
				scratch := make([]int, n)
				b.ReportAllocs()
				var sink int
				for i := 0; i < b.N; i++ {
					dst = r.DistinctK(dst, k, n, scratch)
					sink += dst[0]
				}
				_ = sink
			})
			b.Run(fmt.Sprintf("small/k=%d/deg=%d", k, n), func(b *testing.B) {
				r := New(1)
				b.ReportAllocs()
				var sink int
				for i := 0; i < b.N; i++ {
					switch k {
					case 1:
						sink += r.IntN(n)
					case 2:
						a, _ := r.Distinct2(n)
						sink += a
					case 4:
						a, _, _, _ := r.Distinct4(n)
						sink += a
					}
				}
				_ = sink
			})
			b.Run(fmt.Sprintf("skip/k=%d/deg=%d", k, n), func(b *testing.B) {
				r := New(1)
				b.ReportAllocs()
				r.SkipRows(k, n, b.N)
			})
		}
	}
}
