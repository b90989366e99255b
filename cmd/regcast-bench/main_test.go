package main

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"testing"

	"regcast"
)

// TestGridGoldens is what is left of the old baseline gate, made strict:
// rounds and transmissions are byte-deterministic, so the ci and
// populations grids (default seed, no -timing) must serialise to exactly
// the committed testdata/<grid>.json — for every replication-pool width. After a documented reseed, regenerate
// with `go run ./cmd/regcast-bench -grid <grid> -o
// cmd/regcast-bench/testdata/<grid>.json`.
func TestGridGoldens(t *testing.T) {
	const defaultSeed = 1 // CommonFlags' -seed default
	for _, name := range []string{"ci", "populations"} {
		want, err := os.ReadFile(filepath.Join("testdata", name+".json"))
		if err != nil {
			t.Fatal(err)
		}
		g := grids[name]
		for _, v := range []struct {
			label      string
			repWorkers int
			runner     regcast.Runner
		}{
			{"rep-workers=0", 0, regcast.NewRunner()},
			{"rep-workers=4", 4, regcast.NewRunner()},
		} {
			report, err := newSweep(name, g, defaultSeed, g.reps, v.repWorkers, v.runner, false).Run(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := report.WriteJSON(&buf); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(buf.Bytes(), want) {
				t.Errorf("grid %s (%s) drifted from testdata/%s.json:\n%s", name, v.label, name, buf.Bytes())
			}
		}
	}
}

// TestPopulationsGridDeterministicAcrossRepWorkers runs a shrunk
// populations grid at ReplicationWorkers 0, 1 and 4 and requires the
// serialised reports to be byte-identical — the determinism contract the
// bench output rests on, extended to the interaction scheduler.
func TestPopulationsGridDeterministicAcrossRepWorkers(t *testing.T) {
	g := grid{
		reps: 3,
		axes: []regcast.Axis{populationAxis([]int{128, 256}, 51, []int{3, 5}, 256, []float64{0.6})},
	}
	var want []byte
	for i, workers := range []int{0, 1, 4} {
		sweep := newSweep("populations-test", g, 7, g.reps, workers, regcast.NewRunner(), false)
		report, err := sweep.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := report.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			want = buf.Bytes()
			if len(report.Cells) != 5 {
				t.Fatalf("%d cells, want 5", len(report.Cells))
			}
			for _, c := range report.Cells {
				if c.Completed == 0 {
					t.Fatalf("cell %s: no replication converged", c.Label)
				}
			}
			continue
		}
		if !bytes.Equal(buf.Bytes(), want) {
			t.Fatalf("rep-workers=%d report differs from rep-workers=0:\n%s\nvs\n%s", workers, buf.Bytes(), want)
		}
	}
}

// TestBroadcastGridStillDeterministic guards the pre-existing grids'
// byte-determinism through the factored-out sweep constructor.
func TestBroadcastGridStillDeterministic(t *testing.T) {
	g := grid{
		reps: 2,
		axes: []regcast.Axis{regcast.Vals("n", 128), protoAxis("push")},
		def:  cellDefaults{d: 8, proto: protocols["push"]},
	}
	var want []byte
	for i, workers := range []int{0, 4} {
		sweep := newSweep("ci-test", g, 3, g.reps, workers, regcast.NewRunner(), false)
		report, err := sweep.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := report.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			want = buf.Bytes()
			continue
		}
		if !bytes.Equal(buf.Bytes(), want) {
			t.Fatalf("rep-workers=%d report differs from rep-workers=0", workers)
		}
	}
}
