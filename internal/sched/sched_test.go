package sched

import (
	"runtime"
	"sync/atomic"
	"testing"
)

func TestBoundsPartitionExactly(t *testing.T) {
	for _, tc := range []struct{ n, shards int }{
		{0, 4}, {1, 4}, {7, 3}, {64, 64}, {100, 64}, {1 << 16, 64}, {5, 8},
	} {
		prev := 0
		total := 0
		for i := 0; i < tc.shards; i++ {
			lo, hi := Bounds(i, tc.n, tc.shards)
			if lo != prev {
				t.Fatalf("n=%d shards=%d: shard %d starts at %d, want %d", tc.n, tc.shards, i, lo, prev)
			}
			if hi < lo {
				t.Fatalf("n=%d shards=%d: shard %d has hi %d < lo %d", tc.n, tc.shards, i, hi, lo)
			}
			if hi-lo > tc.n/tc.shards+1 {
				t.Fatalf("n=%d shards=%d: shard %d owns %d items, imbalanced", tc.n, tc.shards, i, hi-lo)
			}
			for v := lo; v < hi; v++ {
				if got := Owner(v, tc.n, tc.shards); got != i {
					t.Fatalf("n=%d shards=%d: Owner(%d) = %d, want %d", tc.n, tc.shards, v, got, i)
				}
			}
			total += hi - lo
			prev = hi
		}
		if prev != tc.n || total != tc.n {
			t.Fatalf("n=%d shards=%d: partition covers %d items ending at %d", tc.n, tc.shards, total, prev)
		}
	}
}

func TestResolve(t *testing.T) {
	if got := Resolve(WorkersAuto, 1<<20); got != runtime.GOMAXPROCS(0) {
		t.Fatalf("Resolve(WorkersAuto) = %d, want GOMAXPROCS %d", got, runtime.GOMAXPROCS(0))
	}
	if got := Resolve(128, 64); got != 64 {
		t.Fatalf("Resolve(128, 64) = %d, want clamp to 64 shards", got)
	}
	if got := Resolve(3, 64); got != 3 {
		t.Fatalf("Resolve(3, 64) = %d, want 3", got)
	}
}

func TestPoolRunsEveryShardOnce(t *testing.T) {
	const shards = 257
	for _, workers := range []int{2, 4, 16} {
		var counts [shards]atomic.Int64
		Pool(workers, shards, func(i int) { counts[i].Add(1) })
		for i := range counts {
			if got := counts[i].Load(); got != 1 {
				t.Fatalf("workers=%d: shard %d ran %d times", workers, i, got)
			}
		}
	}
}
