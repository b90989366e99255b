// Package sched is the engine-family-neutral scheduler substrate: the
// shard partitioning, worker resolution, and work-stealing pool that every
// deterministic sharded super-step engine in this repository shares. The
// phone-call round engine (internal/phonecall) and the
// pairwise-interaction population engine (internal/population) are two
// instances of the same Scheduler shape, and this package is the part
// they have in common.
//
// # The deterministic sharded super-step contract
//
// A super-step engine advances in discrete steps (a phone-call round, a
// batch of pairwise interactions, a synchronous ring step). Each step
// runs in two phases:
//
//  1. Shard passes: the work items of the step are partitioned into
//     Shards contiguous ranges (Bounds). Each shard draws only from its
//     own PRNG stream — stream i is the i-th Split of the run RNG — and
//     writes only shard-private state, so passes may run concurrently on
//     any number of workers (Pool).
//  2. Merge: per-shard outputs are folded into the global state
//     sequentially, in ascending shard order, by the coordinating
//     goroutine.
//
// Because the per-shard streams are derived deterministically and the
// merge order is fixed, a step's outcome is a pure function of (seed,
// configuration, shard count): the worker count — including the inline
// one-worker case — can never change a trace, only the wall-clock time.
// The shard count does determine the trace, which is why DefaultShards is
// a fixed constant rather than a function of GOMAXPROCS.
package sched

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// WorkersAuto selects GOMAXPROCS worker goroutines.
const WorkersAuto = -1

// DefaultShards is the shard count engines use when their config leaves
// it zero. It is a fixed constant — deliberately NOT tied to GOMAXPROCS —
// so that a run's trace depends only on (seed, topology/protocol, shard
// count) and is reproducible across machines and worker counts.
const DefaultShards = 64

// CheckWorkers is the one rule for a Workers knob: WorkersAuto, 0 (inline)
// or a positive count. Anything below WorkersAuto is an error, reported as
// "<knob> <value> invalid (…)".
func CheckWorkers(knob string, workers int) error {
	if workers < WorkersAuto {
		return fmt.Errorf("%s %d invalid (use WorkersAuto, 0 or a positive count)", knob, workers)
	}
	return nil
}

// Resolve maps a Workers knob (WorkersAuto, or an explicit count) to the
// concrete number of worker goroutines for nShards shards: GOMAXPROCS for
// WorkersAuto, and never more workers than shards.
func Resolve(workers, nShards int) int {
	if workers == WorkersAuto {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > nShards {
		workers = nShards
	}
	return workers
}

// Bounds returns the contiguous range [lo, hi) of n work items that shard
// i of nShards owns. The partition is balanced to within one item and
// covers [0, n) exactly.
func Bounds(i, n, nShards int) (lo, hi int) {
	return i * n / nShards, (i + 1) * n / nShards
}

// Owner is the inverse of Bounds: the shard i of nShards whose range
// [lo, hi) contains item v of n (0 <= v < n).
func Owner(v, n, nShards int) int {
	return ((v+1)*nShards - 1) / n
}

// Pool executes pass(shard) for every shard in [0, nShards) on workers
// goroutines with atomic work stealing, and returns when all passes have
// finished. Shard-to-worker assignment is arbitrary; under the contract
// above shard results are not, so scheduling cannot influence the
// outcome.
//
// Pool is the parallel branch only: callers keep their own inline loop
// for the workers <= 1 case, because the pass closure would otherwise be
// heap-allocated on hot per-step paths that must stay allocation-free.
func Pool(workers, nShards int, pass func(shard int)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= nShards {
					return
				}
				pass(i)
			}
		}()
	}
	wg.Wait()
}
