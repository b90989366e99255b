package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strconv"

	"regcast/internal/stats"
)

// childRun runs one workload in a fresh process (peak RSS is per process)
// and returns its end-to-end metrics.
func childRun(exe, workload string, seed uint64, o options) (map[string]metricValue, error) {
	args := []string{"-workload", workload, "-seed", strconv.FormatUint(seed, 10),
		"-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64), "-samples", strconv.Itoa(o.samples)}
	if o.quick {
		args = append(args, "-quick")
	}
	cmd := exec.Command(exe, args...)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("%s seed %d: %w", workload, seed, err)
	}
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	var res result
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return nil, err
	}
	if !res.Correct {
		return nil, fmt.Errorf("%s seed %d: run reported incorrect output", workload, seed)
	}
	return res.Metrics, nil
}

// selfRuns is the size of each of the self-check's two sets.
const selfRuns = 3

// selfcheck is the A/A test: per workload, two sets of three runs of this
// same binary, interleaved A B A B A B because the box also drifts slowly,
// each run on its own seed as the pipeline does it. For every end-to-end
// metric it prints both set medians, how much worse B's is than A's, and
// the declared bound. It returns 1 when a gap exceeds its bound.
func selfcheck(selected []workload, o options) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	code := 0
	for _, w := range selected {
		sets := [2]map[string][]float64{{}, {}}
		for r := 0; r < 2*selfRuns; r++ {
			metrics, err := childRun(exe, w.name, o.seed+uint64(r), o)
			if err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
				return 1
			}
			for name, v := range metrics {
				sets[r%2][name] = append(sets[r%2][name], v.Value)
			}
		}
		fmt.Println(w.name)
		fmt.Printf("  %-18s %14s %14s %8s %6s\n", "metric", "median A", "median B", "gap", "bound")
		for _, d := range endToEnd {
			a, b := stats.Quantile(sets[0][d.Name], 0.5), stats.Quantile(sets[1][d.Name], 0.5)
			gap := (b - a) / a
			if d.Better == "higher" {
				gap = -gap
			}
			verdict := ""
			if gap > d.Bound {
				verdict = "  BREACH"
				code = 1
			}
			fmt.Printf("  %-18s %14.6g %14.6g %+7.2f%% %5.0f%%%s\n", d.Name, a, b, 100*gap, 100*d.Bound, verdict)
		}
	}
	return code
}
