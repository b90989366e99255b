package regcast_test

import (
	"fmt"
	"sync"
	"testing"

	"regcast"
	"regcast/internal/baseline"
	"regcast/internal/core"
	"regcast/internal/graph"
	"regcast/internal/phonecall"
	"regcast/internal/xrand"
)

// Scale benchmarks for the phone-call round driver
// (internal/phonecall/parallel.go). Worker count never changes the
// simulated trace — only the wall-clock time — so the workers=1 entry
// (shard passes inline, the same code Workers == 0 runs) is the exact
// sequential baseline for the speedup ratios recorded in EXPERIMENTS.md.
// Run with:
//
//	go test -bench BenchmarkSharded -benchtime 3x .
//
// All scale benchmarks skip themselves under -short: the CI benchmark
// smoke must never build a 100k- or 1M-node graph (machine-readable CI
// perf numbers come from cmd/regcast-bench's small grid instead).

var (
	benchGraphMu    sync.Mutex
	benchGraphCache = map[[2]int]*graph.Graph{}
)

// benchGraph builds (and memoises) a random d-regular graph.
func benchGraph(b *testing.B, n, d int) *graph.Graph {
	b.Helper()
	benchGraphMu.Lock()
	defer benchGraphMu.Unlock()
	key := [2]int{n, d}
	if g, ok := benchGraphCache[key]; ok {
		return g
	}
	g, err := graph.RandomRegular(n, d, xrand.New(uint64(n)*31+uint64(d)))
	if err != nil {
		b.Fatal(err)
	}
	benchGraphCache[key] = g
	return g
}

// benchSizes returns the node counts to sweep, skipping the whole scale
// suite under -short (CI smoke): even the smallest scale size is far too
// heavy for a smoke run.
func benchSizes(b *testing.B) []int {
	b.Helper()
	if testing.Short() {
		b.Skip("scale benchmarks skipped under -short (100k/1M-node sweeps)")
	}
	return []int{100_000, 1_000_000}
}

// BenchmarkShardedPush sweeps worker counts on the classic push schedule
// — the heaviest steady-state workload (every informed node transmits
// every round) and the one used for the EXPERIMENTS.md speedup table.
func BenchmarkShardedPush(b *testing.B) {
	const d = 16
	for _, n := range benchSizes(b) {
		g := benchGraph(b, n, d)
		push, err := baseline.NewPush(n, 1)
		if err != nil {
			b.Fatal(err)
		}
		for _, workers := range []int{1, 2, 4, 8} {
			b.Run(fmt.Sprintf("n=%d/workers=%d", n, workers), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					res, err := phonecall.Run(phonecall.Config{
						Topology:  phonecall.NewStatic(g),
						Protocol:  push,
						RNG:       xrand.New(uint64(i) + 1),
						StopEarly: true,
						Workers:   workers,
					})
					if err != nil {
						b.Fatal(err)
					}
					if !res.AllInformed {
						b.Fatalf("push incomplete: %d/%d", res.Informed, res.AliveNodes)
					}
				}
			})
		}
	}
}

// BenchmarkShardedFourChoice runs the paper's Algorithm 1 at scale,
// inline and pooled — the O(n·log log n) workload whose Phase 2/3 rounds are
// the parallel section's best case (every node dials four channels).
func BenchmarkShardedFourChoice(b *testing.B) {
	const d = 16
	for _, n := range benchSizes(b) {
		g := benchGraph(b, n, d)
		proto, err := core.New(n, d)
		if err != nil {
			b.Fatal(err)
		}
		for _, workers := range []int{1, 8} {
			b.Run(fmt.Sprintf("n=%d/workers=%d", n, workers), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					res, err := phonecall.Run(phonecall.Config{
						Topology: phonecall.NewStatic(g),
						Protocol: proto,
						RNG:      xrand.New(uint64(i) + 1),
						Workers:  workers,
					})
					if err != nil {
						b.Fatal(err)
					}
					if !res.AllInformed {
						b.Fatalf("four-choice incomplete: %d/%d", res.Informed, res.AliveNodes)
					}
				}
			})
		}
	}
}

// BenchmarkChurnBroadcast100k measures the epoch-aware CSR view on the
// paper's headline setting at scale: a 100k-peer maintained overlay with
// per-round join/leave churn, broadcast with Algorithm 1. The overlay's
// epoch-stamped CSR view is re-fetched only when a churn step bumps the
// epoch. Each iteration rebuilds the overlay outside the timer (churn
// mutates it).
func BenchmarkChurnBroadcast100k(b *testing.B) {
	if testing.Short() {
		b.Skip("scale benchmarks skipped under -short (100k-node overlay)")
	}
	const n, d = 100_000, 8
	const churnRate = 0.001
	proto, err := core.NewAlgorithm1(n)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		master := xrand.New(uint64(i) + 41)
		topo, err := regcast.OverlaySpec{
			N: n, D: d, Headroom: n / 4,
			JoinProb: churnRate, LeaveProb: churnRate, MixSteps: 5,
		}.Build(0, master)
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		res, err := phonecall.Run(phonecall.Config{
			Topology: topo,
			Protocol: proto,
			RNG:      master.Split(),
		})
		if err != nil {
			b.Fatal(err)
		}
		if res.Informed < n/2 {
			b.Fatalf("implausible churn broadcast: %d/%d informed", res.Informed, res.AliveNodes)
		}
	}
}
