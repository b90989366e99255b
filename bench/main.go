// Command bench is the repository's benchmark: four long single-threaded
// workloads run end to end through the public regcast facade, best-of-S
// timings, and a separate traced run that attributes the time to layers.
//
//	bash bench/run.sh --workload dense-fourchoice --seed 1 --seconds 30 --trace 0
//	bash bench/run.sh --workload all --seed 1 --samples 5 --trace 1 --spans spans.json
//	bash bench/run.sh --selfcheck
//
// Each workload prints two JSON lines on standard output: a report line
// (environment, sample count, ungated p50/p90 companions) and, last, the
// result line {"correct","attempted","failed","metrics"}. The exit code is
// non-zero when an output check failed. README.md has the protocol.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"
)

// environment is the header that makes a number attributable to a
// machine and a commit.
type environment struct {
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"nproc"`
	CPU        string `json:"cpu"`
	Go         string `json:"go"`
	Commit     string `json:"commit"`
}

func readEnvironment() environment {
	return environment{
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		CPU:        cpuModel(),
		Go:         runtime.Version(),
		Commit:     gitHead(),
	}
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if name, ok := strings.CutPrefix(line, "model name"); ok {
			return strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
		}
	}
	return "unknown"
}

// gitHead resolves HEAD of the checkout in the working directory by
// reading .git directly (the pipeline's checkouts are not repositories,
// and starting git would read outside the checkout).
func gitHead() string {
	head, err := os.ReadFile(".git/HEAD")
	if err != nil {
		return "unknown"
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return ref
	}
	if sha, err := os.ReadFile(".git/" + ref); err == nil {
		return strings.TrimSpace(string(sha))
	}
	packed, _ := os.ReadFile(".git/packed-refs")
	for _, line := range strings.Split(string(packed), "\n") {
		if sha, ok := strings.CutSuffix(line, " "+ref); ok {
			return sha
		}
	}
	return "unknown"
}

// report is the first line of a workload's output: everything a reader
// needs beside the result line, which the pipeline's contract keeps to four
// keys.
type report struct {
	Workload string             `json:"workload"`
	Why      string             `json:"why"`
	Env      environment        `json:"env"`
	Seed     uint64             `json:"seed"`
	N        int                `json:"n"`
	Samples  int                `json:"samples"`
	Traced   bool               `json:"traced"`
	Detail   map[string]float64 `json:"detail,omitempty"`
}

// result is the last line of a workload's output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type options struct {
	seed    uint64
	seconds float64
	samples int
	trace   bool
	quick   bool
	spans   string
}

// runWorkload runs one workload and returns its two output lines.
func runWorkload(ctx context.Context, w *workload, env environment, o options) (report, result, error) {
	// Gated numbers come from one simulation thread: a two-worker run on
	// this two-core box is bimodal (README.md), so a workload whose Runner
	// or Batch would get more (or WorkersAuto) is refused, not measured.
	if w.workers < 0 || w.workers > 1 || w.repWorkers < 0 || w.repWorkers > 1 {
		return report{}, result{}, fmt.Errorf("workload %s runs with Workers=%d, ReplicationWorkers=%d; gated runs use at most one simulation thread", w.name, w.workers, w.repWorkers)
	}
	rep := report{Workload: w.name, Why: w.why, Env: env, Seed: o.seed, N: w.n, Traced: o.trace}
	b := budget{fixed: o.samples, min: w.statSamples, window: time.Duration(o.seconds * float64(time.Second))}
	var (
		run  runResult
		defs = endToEnd
	)
	if o.trace {
		// The traced loop takes every sample three ways and is followed by
		// the variants and probes, so it gets the smaller part of the time.
		b.min, b.window = 3, b.window/2
		defs = perLayer
		var err error
		if run, err = traceRun(ctx, w, o.seed, b, o.quick, o.spans); err != nil {
			return rep, result{}, err
		}
	} else {
		run = measure(ctx, w, o.seed, b)
	}
	rep.Samples = run.attempted - run.failed
	rep.Detail = run.detail
	res := result{
		Correct:   run.failed == 0 && run.attempted > 0,
		Attempted: run.attempted,
		Failed:    run.failed,
		Metrics:   run.metrics.emit(defs),
	}
	if !o.trace && run.metrics["coverage"] != 1 {
		res.Correct = false
	}
	return rep, res, nil
}

func printJSON(v any) {
	line, err := json.Marshal(v)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(2)
	}
	fmt.Println(string(line))
}

func main() {
	var (
		o     options
		name  = flag.String("workload", "all", "workload name, or all")
		trace = flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: the traced run, per-layer metrics")
		self  = flag.Bool("selfcheck", false, "A/A test: two interleaved sets of three runs per workload, compared against the declared bounds")
	)
	flag.Uint64Var(&o.seed, "seed", 1, "seed of the sample streams")
	flag.Float64Var(&o.seconds, "seconds", 30, "how long one run samples")
	flag.IntVar(&o.samples, "samples", 0, "take exactly this many samples instead of sampling for -seconds")
	flag.BoolVar(&o.quick, "quick", false, "tiny sizes, for tests")
	flag.StringVar(&o.spans, "spans", "", "with -trace 1: write the spans to this file")
	flag.Parse()
	if flag.NArg() > 0 || *trace < 0 || *trace > 1 {
		flag.Usage()
		os.Exit(2)
	}
	o.trace = *trace == 1

	var selected []workload
	for _, w := range allWorkloads(o.quick) {
		if *name == "all" || *name == w.name {
			selected = append(selected, w)
		}
	}
	if len(selected) == 0 {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	if *self {
		os.Exit(selfcheck(selected, o))
	}

	env := readEnvironment()
	code := 0
	for i := range selected {
		rep, res, err := runWorkload(context.Background(), &selected[i], env, o)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", selected[i].name, err)
			os.Exit(1)
		}
		printJSON(rep)
		printJSON(res)
		if !res.Correct {
			code = 1
		}
	}
	os.Exit(code)
}
