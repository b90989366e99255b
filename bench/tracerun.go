package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"slices"
	"time"

	"regcast/internal/xrand"
)

// minOf returns the smallest of xs, 0 when there are none.
func minOf[T float64 | time.Duration](xs []T) T {
	if len(xs) == 0 {
		return 0
	}
	return slices.Min(xs)
}

// cost is the time a replay spent in the layer under test.
func (lr layerRun) cost() time.Duration { return lr.newEngine + lr.run + lr.batch }

// bestReplay replays j's scenario twice on variant v, untraced, and keeps
// the faster.
func bestReplay(j *job, v variant) (layerRun, error) {
	best, err := j.replay(nil, v)
	if err != nil {
		return best, err
	}
	again, err := j.replay(nil, v)
	if err == nil && again.cost() < best.cost() {
		best = again
	}
	return best, err
}

// ratio is a/b, 0 when b is 0 (the layer was not entered).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// nsPer is d spread over events, in nanoseconds.
func nsPer(d time.Duration, events int64) float64 {
	return ratio(float64(d.Nanoseconds()), float64(events))
}

// traceRun is the traced run. Each stream is sampled three ways: untraced
// through the facade, traced through the facade (spans on the setup calls
// and on the facade call), and replayed through the layer API (spans on
// NewEngine / Engine.Run / population.Run). The first two differ only by
// the tracer, which gives the tracing overhead; the third splits the
// facade call into its layers.
// Then the engine variants run on stream 0 and the standalone probes close
// the run. End-to-end metrics never come from here.
func traceRun(ctx context.Context, w *workload, seed uint64, b budget, quick bool, spansPath string) (runResult, error) {
	res := runResult{metrics: metricSet{}}
	m := res.metrics
	scale := 1
	if quick {
		scale = 64
	}
	hostC0, hostM0 := hostProbes(scale)

	tr := newTracer()
	var untraced, traced, facadeRun []float64
	var replays []layerRun
	var first *job
	master := xrand.New(seed)
	b.start()
	for s := 0; b.more(s); s++ {
		res.attempted++
		tr.sample = s
		stream := master.Split()
		twin := *stream
		plain, _, err := takeSample(ctx, w, &twin, nil)
		var withSpans sample
		var j *job
		if err == nil {
			withSpans, j, err = takeSample(ctx, w, stream, tr)
		}
		if err == nil && withSpans.out.key != plain.out.key {
			err = fmt.Errorf("traced pass gave (rounds, tx) %v, untraced %v", withSpans.out.key, plain.out.key)
		}
		var lr layerRun
		if err == nil {
			root := tr.begin("replay")
			lr, err = j.replay(tr, variant{})
			tr.end(root)
		}
		if err != nil {
			res.failed++
			fmt.Fprintf(os.Stderr, "bench: %s traced sample %d failed: %v\n", w.name, s, err)
			continue
		}
		if first == nil {
			first = j
		}
		untraced = append(untraced, plain.wall())
		traced = append(traced, withSpans.wall())
		facadeRun = append(facadeRun, withSpans.run)
		replays = append(replays, lr)
	}
	if first == nil {
		return res, fmt.Errorf("no traced sample succeeded")
	}

	m["graph.gen_s"] = minOf(tr.durations("graph.gen")).Seconds()
	m["graph.validate_s"] = minOf(tr.durations("graph.validate")).Seconds()

	best := replays[0]
	for _, lr := range replays[1:] {
		if lr.cost() < best.cost() {
			best = lr
		}
	}
	// Engine variants on stream 0: the reference path, and the sharded
	// driver at two workers (ungated: the box has two cores).
	ref, err := bestReplay(first, variant{reference: true})
	if err != nil {
		return res, err
	}
	w2, err := bestReplay(first, variant{workers: 2})
	if err != nil {
		return res, err
	}
	if w.population {
		m["population.run_s"] = best.run.Seconds()
		m["population.ns_per_interaction"] = nsPer(best.run, best.events)
		m["population.steps"] = float64(replays[0].rounds)
		m["population.interactions"] = float64(replays[0].events)
		m["population.measure_end"] = float64(replays[0].measure)
		m["population.ref_ns_per_interaction"] = nsPer(ref.run, ref.events)
		m["population.fastpath_ratio"] = ratio(ref.run.Seconds(), best.run.Seconds())
		m["population.w2_run_s"] = w2.run.Seconds()
	} else {
		w1, err := bestReplay(first, variant{workers: 1})
		if err != nil {
			return res, err
		}
		m["phonecall.newengine_s"] = best.newEngine.Seconds()
		m["phonecall.run_s"] = best.run.Seconds()
		m["phonecall.ns_per_dial"] = nsPer(best.run, best.events)
		m["phonecall.run_alloc_mb"] = float64(best.runAlloc) / (1 << 20)
		m["phonecall.rounds"] = float64(replays[0].rounds)
		m["phonecall.dials"] = float64(replays[0].events)
		m["phonecall.transmissions"] = float64(replays[0].tx)
		m["phonecall.ref_ns_per_dial"] = nsPer(ref.run, ref.events)
		m["phonecall.fastpath_ratio"] = ratio(ref.run.Seconds(), best.run.Seconds())
		m["phonecall.w1_run_s"] = w1.run.Seconds()
		m["phonecall.w2_run_s"] = w2.run.Seconds()
		m["phonecall.par_speedup_w2"] = ratio(w1.run.Seconds(), w2.run.Seconds())
	}

	// Facade overhead: the facade call minus the layer calls it makes.
	facadeBest := minOf(facadeRun)
	m["facade.run_overhead_frac"] = (facadeBest - best.cost().Seconds()) / facadeBest
	if w.ensemble {
		m["batch.overhead_frac"] = m["facade.run_overhead_frac"]
		pool1, err := bestReplay(first, variant{repPool: 1})
		if err != nil {
			return res, err
		}
		pool2, err := bestReplay(first, variant{repPool: 2})
		if err != nil {
			return res, err
		}
		m["batch.repworkers2_speedup"] = ratio(pool1.batch.Seconds(), pool2.batch.Seconds())
	}

	// Self-time shares of the traced sample wall. The spans taken inside
	// the sample tile it; the facade call, which cannot be spanned from
	// outside, is split by the replays of the same streams: what they
	// spent in NewEngine, Engine.Run or population.Run is the layers'
	// share, and what is left of the facade call's self time, together
	// with the sample's own (scenario assembly), is the facade's. It is a
	// difference of two measurements and reads slightly negative when the
	// replays ran slower than the facade calls they repeat.
	self := tr.selfTimes()
	var wall time.Duration
	for _, d := range tr.durations("sample") {
		wall += d
	}
	var inNewEngine, inRun time.Duration
	for _, lr := range replays {
		inNewEngine += lr.newEngine
		inRun += lr.run
	}
	shares := map[string]time.Duration{
		"share.graph_gen":           self["graph.gen"],
		"share.graph_validate":      self["graph.validate"],
		"share.overlay_new":         self["overlay.new"],
		"share.phonecall_newengine": inNewEngine,
		"share.facade":              self["sample"] + self["facade.run"] - inNewEngine - inRun,
	}
	if w.population {
		shares["share.population_run"] = inRun
	} else {
		shares["share.phonecall_run"] = inRun
	}
	total := 0.0
	for name, d := range shares {
		m[name] = d.Seconds() / wall.Seconds()
		total += m[name]
	}
	// Holds as long as every span opened inside a sample is in a share.
	if math.Abs(total-1) > 0.05 {
		return res, fmt.Errorf("share.* sum to %.3f of the traced sample wall", total)
	}
	m["trace.overhead_frac"] = (minOf(traced) - minOf(untraced)) / minOf(untraced)

	if err := layerProbes(m, scale); err != nil {
		return res, err
	}
	hostC1, hostM1 := hostProbes(scale)
	m["host.probe_compute_ns"] = (hostC0 + hostC1) / 2
	m["host.probe_memory_ns"] = (hostM0 + hostM1) / 2

	for name, v := range m {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return res, fmt.Errorf("metric %s is %v", name, v)
		}
	}
	if spansPath != "" {
		if err := tr.write(spansPath); err != nil {
			return res, err
		}
	}
	return res, nil
}
