package main

import (
	"io"
	"os"
	"strings"
	"testing"
)

// output runs the command with args and returns what it printed.
func output(t *testing.T, args ...string) (string, error) {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout = w
	printed := make(chan string)
	go func() {
		b, _ := io.ReadAll(r)
		printed <- string(b)
	}()
	runErr := run(args)
	os.Stdout = stdout
	w.Close()
	return <-printed, runErr
}

// TestTopologyDegreePicksVariant: with -topology the four-choice variant
// follows the topology's degree, not -d's default of 8. The 12-cube and
// a 16-regular stream are both past the variant threshold.
func TestTopologyDegreePicksVariant(t *testing.T) {
	for _, spec := range []string{"hypercube:dim=12", "regular-stream:n=4096,d=16"} {
		out, err := output(t, "-topology", spec, "-protocol", "fourchoice")
		if err != nil {
			t.Fatalf("%s: %v", spec, err)
		}
		if !strings.Contains(out, "protocol: 4-choice/algorithm2(") {
			t.Errorf("%s: want algorithm2, got\n%s", spec, out)
		}
	}
}

// TestTopologyRejectsNodeCountAndDegree: a spec sets both, so an explicit
// -n or -d beside it is refused by name rather than ignored.
func TestTopologyRejectsNodeCountAndDegree(t *testing.T) {
	for _, extra := range []string{"-n", "-d"} {
		err := run([]string{"-topology", "hypercube:dim=12", extra, "12"})
		if err == nil || !strings.HasPrefix(err.Error(), extra+":") {
			t.Errorf("%s: err = %v, want it named", extra, err)
		}
	}
}

// TestRejectsSchedulerFlag: the command runs broadcasts only; -scheduler
// is cmd/experiments' flag.
func TestRejectsSchedulerFlag(t *testing.T) {
	err := run([]string{"-scheduler", "interactions"})
	if err == nil || !strings.Contains(err.Error(), "-scheduler") {
		t.Fatalf("-scheduler: err = %v, want it named", err)
	}
}
