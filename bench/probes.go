package main

import (
	"runtime"
	"time"

	"regcast/internal/graph"
	"regcast/internal/p2p/overlay"
	"regcast/internal/sched"
	"regcast/internal/stats"
	"regcast/internal/xrand"
)

// sink keeps probe results alive so the compiler cannot drop the loops.
var sink uint64

// xorshift is one step of Marsaglia's 64-bit xorshift: the probes' own
// index generator, so they measure the layer and not xrand.
func xorshift(x uint64) uint64 {
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	return x
}

// bestOf runs fn reps times and returns the fastest duration.
func bestOf(reps int, fn func()) time.Duration {
	best := time.Duration(1<<63 - 1)
	for r := 0; r < reps; r++ {
		t0 := time.Now()
		fn()
		if d := time.Since(t0); d < best {
			best = d
		}
	}
	return best
}

// perOp is the best of three timings of fn, which performs ops operations,
// in nanoseconds per operation.
func perOp(ops int, fn func()) float64 {
	return float64(bestOf(3, fn).Nanoseconds()) / float64(ops)
}

// hostProbes times two fixed loops that touch no repository code: pure
// register arithmetic, and dependent loads over 16 MiB. They tell a slow
// machine from a slow program.
func hostProbes(scale int) (computeNs, memoryNs float64) {
	iters := 1 << 24 / scale
	computeNs = perOp(iters, func() {
		x := uint64(88172645463325252)
		for i := 0; i < iters; i++ {
			x = xorshift(x)
		}
		sink += x
	})
	const words = 16 << 20 / 8
	ring := make([]uint64, words)
	// A single cycle through all words (Sattolo), so every load depends on
	// the previous one and the walk never settles into a short loop.
	for i := range ring {
		ring[i] = uint64(i)
	}
	r := xrand.New(1)
	for i := words - 1; i > 0; i-- {
		j := r.IntN(i)
		ring[i], ring[j] = ring[j], ring[i]
	}
	loads := 1 << 21 / scale
	memoryNs = perOp(loads, func() {
		p := uint64(0)
		for i := 0; i < loads; i++ {
			p = ring[p]
		}
		sink += p
	})
	return computeNs, memoryNs
}

// layerProbes times single exported functions of each layer standalone,
// at the sizes the workloads use them. scale divides the iteration counts
// and n for the quick path.
func layerProbes(m metricSet, scale int) error {
	n, d := 131072/scale, 16
	iters := 1 << 22 / scale
	r := xrand.New(7)

	m["xrand.uint64_ns"] = perOp(iters, func() {
		var acc uint64
		for i := 0; i < iters; i++ {
			acc += r.Uint64()
		}
		sink += acc
	})
	m["xrand.intn_ns"] = perOp(iters, func() {
		var acc int
		for i := 0; i < iters; i++ {
			acc += r.IntN(d)
		}
		sink += uint64(acc)
	})
	dst, scratch := make([]int, 0, 4), make([]int, d)
	m["xrand.distinctk_ns"] = perOp(iters/4, func() {
		for i := 0; i < iters/4; i++ {
			dst = r.DistinctK(dst, 4, d, scratch)
		}
		sink += uint64(dst[0])
	})
	pairs := make([]xrand.PairDraw, 4096)
	blocks := iters / len(pairs)
	m["xrand.pairdraw_ns"] = perOp(blocks*len(pairs), func() {
		for i := 0; i < blocks; i++ {
			r.FillPairDraws(pairs, 2*n)
		}
		sink += pairs[0].Coin
	})

	var (
		g      *graph.Graph
		err    error
		before runtime.MemStats
		after  runtime.MemStats
	)
	runtime.ReadMemStats(&before)
	gen := bestOf(1, func() { g, err = graph.RandomRegular(n, d, r.Split()) })
	runtime.ReadMemStats(&after)
	if err != nil {
		return err
	}
	m["graph.gen_ns_per_edge"] = float64(gen.Nanoseconds()) / float64(g.NumEdges())
	m["graph.gen_alloc_mb"] = float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20)
	off, adj := g.CSR()
	m["graph.csr_neighbor_ns"] = perOp(iters, func() {
		x, acc := uint64(1), int32(0)
		for i := 0; i < iters; i++ {
			x = xorshift(x)
			acc += adj[off[x%uint64(n)]+int32(x>>60)]
		}
		sink += uint64(acc)
	})

	var rs *graph.RegularStream
	const streamBuilds = 1024
	m["graph.stream_new_s"] = perOp(streamBuilds, func() {
		for i := 0; i < streamBuilds && err == nil; i++ {
			rs, err = graph.NewRegularStream(n, d, uint64(i))
		}
	}) / 1e9
	if err != nil {
		return err
	}
	m["graph.stream_neighbor_ns"] = perOp(iters/4, func() {
		x, acc := uint64(1), int32(0)
		for i := 0; i < iters/4; i++ {
			x = xorshift(x)
			acc += rs.NeighborAt(int(x%uint64(n)), int(x>>60))
		}
		sink += uint64(acc)
	})

	dispatches := 2048 / scale
	m["sched.pool_dispatch_us"] = perOp(dispatches, func() {
		for i := 0; i < dispatches; i++ {
			sched.Pool(2, sched.DefaultShards, func(int) {})
		}
	}) / 1e3

	on, od := 16384/scale, 8
	var ov *overlay.Overlay
	m["overlay.new_s"] = bestOf(3, func() {
		if err == nil {
			ov, err = overlay.New(on, od, on, r.Split())
		}
	}).Seconds()
	if err != nil {
		return err
	}
	ch, err := overlay.NewChurner(ov, 0.01, 0.01, 5, r.Split())
	if err != nil {
		return err
	}
	const steps = 64
	round := 0
	m["overlay.step_us"] = perOp(steps, func() {
		for i := 0; i < steps; i++ {
			round++
			ch.Step(round)
		}
	}) / 1e3

	hist, err := stats.NewStreamHist(64)
	if err != nil {
		return err
	}
	var acc stats.Accumulator
	adds := iters / 16
	m["stats.add_ns"] = perOp(adds, func() {
		for i := 0; i < adds; i++ {
			x := float64(r.IntN(64))
			acc.Add(x)
			hist.Add(x)
		}
	})
	sink += uint64(acc.N())
	return nil
}
