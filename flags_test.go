package regcast_test

import (
	"context"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"regcast"
	"regcast/internal/baseline"
)

// TestProfileFlags drives the shared pprof hooks the way a command does:
// parse -cpuprofile/-memprofile, StartProfiles, a tiny run, stop. Both
// files must then hold a profile; with neither flag the hooks write
// nothing, and an unwritable path fails before any work starts.
func TestProfileFlags(t *testing.T) {
	if fl := flag.Lookup("test.cpuprofile"); fl != nil && fl.Value.String() != "" {
		t.Skip("go test -cpuprofile owns the process's one CPU profile")
	}
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.prof"), filepath.Join(dir, "mem.prof")
	run := func(args ...string) (stop func(), err error) {
		fs := flag.NewFlagSet("test", flag.ContinueOnError)
		f := regcast.AddCommonFlags(fs)
		if err := fs.Parse(args); err != nil {
			t.Fatal(err)
		}
		if err := f.Validate(); err != nil {
			t.Fatal(err)
		}
		if stop, err = f.StartProfiles(); err != nil {
			return nil, err
		}
		g, err := regcast.NewRegularGraph(256, 8, f.Rand())
		if err != nil {
			t.Fatal(err)
		}
		proto, err := regcast.NewFourChoice(256, 8)
		if err != nil {
			t.Fatal(err)
		}
		sc, err := regcast.NewScenario(regcast.Static(g), proto, regcast.WithSeed(f.Seed))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.Runner().Run(context.Background(), sc); err != nil {
			t.Fatal(err)
		}
		return stop, nil
	}

	stop, err := run("-cpuprofile", cpu, "-memprofile", mem)
	if err != nil {
		t.Fatal(err)
	}
	stop()
	for _, path := range []string{cpu, mem} {
		if st, err := os.Stat(path); err != nil || st.Size() == 0 {
			t.Errorf("%s: no profile written (stat: %v, %v)", filepath.Base(path), st, err)
		}
	}

	stop, err = run()
	if err != nil {
		t.Fatal(err)
	}
	stop()
	if entries, _ := os.ReadDir(dir); len(entries) != 2 {
		t.Errorf("a run without profile flags left %d files beside the two profiles", len(entries)-2)
	}

	if _, err := run("-memprofile", filepath.Join(dir, "missing", "mem.prof")); err == nil {
		t.Error("StartProfiles accepted a -memprofile path whose directory does not exist")
	}
}

// TestPhasesFlag: -phases hands a command a PhaseTotals observer whose sums
// cover every round of the run — the counted tail apart — and without the
// flag there is no observer, so the run reads no clock.
func TestPhasesFlag(t *testing.T) {
	parse := func(args ...string) *regcast.CommonFlags {
		fs := flag.NewFlagSet("test", flag.ContinueOnError)
		f := regcast.AddCommonFlags(fs)
		if err := fs.Parse(args); err != nil {
			t.Fatal(err)
		}
		return f
	}
	if p := parse().PhaseTotals(); p != nil {
		t.Fatalf("-phases is off by default, got an observer %v", p)
	}
	phases := parse("-phases").PhaseTotals()
	if phases == nil {
		t.Fatal("-phases gave no observer")
	}
	proto, err := baseline.NewPush(4096, 1)
	if err != nil {
		t.Fatal(err)
	}
	spec, err := regcast.ParseTopologySpec("regular-stream:n=4096,d=8")
	if err != nil {
		t.Fatal(err)
	}
	sc, err := regcast.NewScenarioSpec(spec, proto, regcast.WithSeed(3), regcast.WithObserver(phases))
	if err != nil {
		t.Fatal(err)
	}
	res, err := regcast.Run(context.Background(), sc)
	if err != nil {
		t.Fatal(err)
	}
	if res.CountedRounds == 0 {
		t.Fatal("the run settled nowhere: no counted rounds to sum")
	}
	if phases.Rounds != res.Rounds || phases.CountedRounds != res.CountedRounds {
		t.Errorf("summed %d rounds (%d counted), the run had %d (%d counted)",
			phases.Rounds, phases.CountedRounds, res.Rounds, res.CountedRounds)
	}
	if phases.Passes <= 0 || phases.Merge <= 0 {
		t.Errorf("simulated rounds summed no pass or merge time: %v", phases)
	}
	if line := phases.String(); !strings.HasPrefix(line, "phases: ") || strings.Count(line, "\n") != 0 {
		t.Errorf("not one line: %q", line)
	}
}
