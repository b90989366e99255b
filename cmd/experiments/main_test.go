package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestQuickProfileGolden pins the quick profile of every registered
// experiment, both schedulers, to the committed Markdown byte for byte, at
// every engine and replication-pool width: tables are a pure function of
// -seed, so any drift is a changed trace. After a documented reseed,
// regenerate with
//
//	go run ./cmd/experiments -quick -markdown > cmd/experiments/testdata/rounds.md
//	go run ./cmd/experiments -quick -markdown -scheduler interactions > cmd/experiments/testdata/interactions.md
func TestQuickProfileGolden(t *testing.T) {
	for _, golden := range []struct {
		file string
		args []string
	}{
		{"rounds.md", []string{"-quick", "-markdown"}},
		{"interactions.md", []string{"-quick", "-markdown", "-scheduler", "interactions"}},
	} {
		want, err := os.ReadFile(filepath.Join("testdata", golden.file))
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range []struct{ workers, repWorkers int }{{0, 0}, {1, 1}, {8, -1}} {
			name := golden.file + "/workers=" + strconv.Itoa(w.workers) + ",rep-workers=" + strconv.Itoa(w.repWorkers)
			t.Run(name, func(t *testing.T) {
				args := append([]string{"-workers", strconv.Itoa(w.workers), "-rep-workers", strconv.Itoa(w.repWorkers)}, golden.args...)
				var out bytes.Buffer
				if err := run(args, &out); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(out.Bytes(), want) {
					t.Errorf("output drifted from testdata/%s:\n%s", golden.file, out.Bytes())
				}
			})
		}
	}
}

// TestRejectsTopologyFlag: only broadcast-sim reads -topology, so this
// command must refuse it rather than print the default tables.
func TestRejectsTopologyFlag(t *testing.T) {
	if err := run([]string{"-quick", "-run", "E1", "-topology", "hypercube:dim=10"}, io.Discard); err == nil {
		t.Fatal("-topology was accepted")
	}
}

// TestRejectsPhasesFlag: no experiment prints phase times, so -phases is
// refused rather than ignored.
func TestRejectsPhasesFlag(t *testing.T) {
	err := run([]string{"-quick", "-run", "E1", "-phases"}, io.Discard)
	if err == nil || !strings.HasPrefix(err.Error(), "-phases") {
		t.Fatalf("-phases: err = %v, want it named", err)
	}
}
