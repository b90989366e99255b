package main

import (
	"context"
	"encoding/json"
	"go/format"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"testing"

	"regcast/internal/xrand"
)

// manifest mirrors the root BENCHMARK.json.
type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []manifestMetric `json:"end_to_end"`
	PerLayer []manifestMetric `json:"per_layer"`
}

type manifestMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func readManifest(t *testing.T) manifest {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	return m
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestManifestMatches keeps BENCHMARK.json and the tables in metrics.go and
// workloads.go in step, and inside the pipeline's limits.
func TestManifestMatches(t *testing.T) {
	m := readManifest(t)
	check := func(kind string, got []manifestMetric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: manifest has %d metrics, the benchmark emits %d", kind, len(got), len(want))
		}
		for i, w := range want {
			g := got[i]
			if g.Name != w.Name || g.Unit != w.Unit || g.Better != w.Better {
				t.Errorf("%s[%d]: manifest %+v, benchmark %+v", kind, i, g, w)
			}
			if !nameRE.MatchString(g.Name) || !unitRE.MatchString(g.Unit) {
				t.Errorf("%s[%d]: name %q or unit %q outside the allowed alphabet", kind, i, g.Name, g.Unit)
			}
			if g.Better != "lower" && g.Better != "higher" {
				t.Errorf("%s[%d]: better = %q", kind, i, g.Better)
			}
			switch {
			case bounded && (g.Bound == nil || *g.Bound != w.Bound || *g.Bound < 0 || *g.Bound > 0.25):
				t.Errorf("%s[%d] %s: manifest bound %v, benchmark %v", kind, i, g.Name, g.Bound, w.Bound)
			case !bounded && g.Bound != nil:
				t.Errorf("%s[%d] %s: a per-layer metric has no bound", kind, i, g.Name)
			}
		}
	}
	check("end_to_end", m.EndToEnd, endToEnd, true)
	check("per_layer", m.PerLayer, perLayer, false)

	all := allWorkloads(false)
	if len(m.Workloads) != len(all) {
		t.Fatalf("manifest has %d workloads, the benchmark %d", len(m.Workloads), len(all))
	}
	for i, w := range all {
		if m.Workloads[i].Name != w.name || m.Workloads[i].Why != w.why {
			t.Errorf("workload %d: manifest %+v, benchmark {%s %s}", i, m.Workloads[i], w.name, w.why)
		}
		if len(w.why) > 200 || !nameRE.MatchString(w.name) {
			t.Errorf("workload %q: name or why outside the limits", w.name)
		}
		if q := allWorkloads(true)[i]; q.name != w.name || q.n > 2048 {
			t.Errorf("quick workload %d is %s with n=%d", i, q.name, q.n)
		}
	}
	if len(m.Paths) != 1 || m.Paths[0] != "bench" {
		t.Errorf("paths = %v", m.Paths)
	}
}

func quickRun(t *testing.T, w *workload, trace bool) result {
	t.Helper()
	o := options{seed: 7, samples: 2, quick: true, trace: trace}
	if trace {
		o.spans = filepath.Join(t.TempDir(), "spans.json")
	}
	_, res, err := runWorkload(context.Background(), w, environment{}, o)
	if err != nil {
		t.Fatalf("%s: %v", w.name, err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted != 2 {
		t.Fatalf("%s: correct=%v attempted=%d failed=%d", w.name, res.Correct, res.Attempted, res.Failed)
	}
	if trace {
		var spans []span
		data, err := os.ReadFile(o.spans)
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(data, &spans); err != nil || len(spans) == 0 {
			t.Fatalf("%s: spans file: %d spans, %v", w.name, len(spans), err)
		}
		for i, s := range spans {
			if s.End < s.Start || s.Parent >= i {
				t.Fatalf("%s: span %d malformed: %+v", w.name, i, s)
			}
		}
	}
	return res
}

// TestQuickRunEmitsEveryMetric runs every workload untraced and traced at
// tiny sizes and checks the result lines against the manifest: every
// declared metric present with its declared unit, nothing else, every value
// finite, the counts that must repeat for one seed repeating.
func TestQuickRunEmitsEveryMetric(t *testing.T) {
	m := readManifest(t)
	for _, w := range allWorkloads(true) {
		w := w
		t.Run(w.name, func(t *testing.T) {
			for _, pass := range []struct {
				trace    bool
				declared []manifestMetric
				exact    []string
			}{
				{false, m.EndToEnd, []string{"rounds_mean", "tx_per_node_mean", "coverage"}},
				{true, m.PerLayer, []string{"phonecall.rounds", "phonecall.dials", "phonecall.transmissions",
					"population.steps", "population.interactions", "population.measure_end"}},
			} {
				first, second := quickRun(t, &w, pass.trace), quickRun(t, &w, pass.trace)
				if len(first.Metrics) != len(pass.declared) {
					t.Errorf("trace=%v: %d metrics emitted, %d declared", pass.trace, len(first.Metrics), len(pass.declared))
				}
				for _, d := range pass.declared {
					got, ok := first.Metrics[d.Name]
					if !ok || got.Unit != d.Unit {
						t.Errorf("metric %s: emitted %+v (present=%v), declared unit %s", d.Name, got, ok, d.Unit)
					}
					if math.IsNaN(got.Value) || math.IsInf(got.Value, 0) {
						t.Errorf("metric %s = %v", d.Name, got.Value)
					}
				}
				for _, name := range pass.exact {
					if a, b := first.Metrics[name].Value, second.Metrics[name].Value; a != b {
						t.Errorf("%s differs between two runs of one seed: %v, %v", name, a, b)
					}
				}
				if !pass.trace {
					if first.Metrics["coverage"].Value != 1 {
						t.Errorf("coverage = %v", first.Metrics["coverage"].Value)
					}
					a, b := first.Metrics["alloc_mb"].Value, second.Metrics["alloc_mb"].Value
					if math.Abs(a-b) > 0.02*a {
						t.Errorf("alloc_mb differs by more than 2%% between two runs of one seed: %v, %v", a, b)
					}
					for _, name := range []string{"wall_s", "setup_s", "events_per_s", "alloc_mb", "rounds_mean", "tx_per_node_mean"} {
						if first.Metrics[name].Value <= 0 {
							t.Errorf("%s = %v, want > 0", name, first.Metrics[name].Value)
						}
					}
				}
			}
		})
	}
}

// TestReplayMatchesFacade pins the claim the layer breakdown rests on: the
// replay through phonecall / population does the same simulated work as the
// facade run of the same stream.
func TestReplayMatchesFacade(t *testing.T) {
	for _, w := range allWorkloads(true) {
		j, err := w.assemble(&w, xrand.New(3), nil)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if err := j.run(context.Background()); err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		out, err := j.check()
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		for _, v := range []variant{{}, {reference: true}} {
			lr, err := j.replay(nil, v)
			if err != nil {
				t.Fatalf("%s %+v: %v", w.name, v, err)
			}
			if got := [2]int64{lr.rounds, lr.tx}; got != out.key || lr.events != out.events {
				t.Errorf("%s %+v: replay (rounds, tx, events) = %v %d, facade %v %d", w.name, v, got, lr.events, out.key, out.events)
			}
		}
	}
}

// TestRefusesParallelGatedRun: a workload whose Runner or Batch would get
// two simulation threads is refused, not measured.
func TestRefusesParallelGatedRun(t *testing.T) {
	for _, set := range []func(*workload){
		func(w *workload) { w.workers = 2 },
		func(w *workload) { w.workers = -1 },
		func(w *workload) { w.repWorkers = 2 },
	} {
		w := allWorkloads(true)[2]
		set(&w)
		if _, _, err := runWorkload(context.Background(), &w, environment{}, options{samples: 1, quick: true}); err == nil {
			t.Fatalf("a gated run with Workers=%d ReplicationWorkers=%d was accepted", w.workers, w.repWorkers)
		}
	}
}

// TestGofmt keeps the package gofmt-clean: the repository's CI runs
// `gofmt -l .` from the root, which reaches this module's files too.
func TestGofmt(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		formatted, err := format.Source(src)
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		if string(formatted) != string(src) {
			t.Errorf("%s is not gofmt-clean", f)
		}
	}
}
