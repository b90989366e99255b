package experiments

import (
	"testing"

	"regcast"
	"regcast/internal/baseline"
	"regcast/internal/xrand"
)

// TestMeasureDeterministicAcrossReplicationWorkers pins the harness's side
// of the batch-layer contract: measure() routes every ensemble through
// regcast.Batch, whose aggregates are bit-identical for every
// ReplicationWorkers value — so the full runStats struct (floats included)
// must compare equal across pool widths.
func TestMeasureDeterministicAcrossReplicationWorkers(t *testing.T) {
	g, err := regular(256, 8, xrand.New(1))
	if err != nil {
		t.Fatal(err)
	}
	push, err := baseline.NewPush(256, 1)
	if err != nil {
		t.Fatal(err)
	}
	var base runStats
	for i, rw := range []int{0, 1, 4, regcast.WorkersAuto} {
		st, err := measure(Options{Workers: 0, ReplicationWorkers: rw}, g, push, 3, 6, regcast.WithStopEarly())
		if err != nil {
			t.Fatal(err)
		}
		if st.MeanTx <= 0 || st.CompletedFrac != 1 {
			t.Fatalf("rep-workers %d: implausible statistics %+v", rw, st)
		}
		if i == 0 {
			base = st
			continue
		}
		if st != base {
			t.Errorf("rep-workers %d changed the statistics: %+v vs %+v", rw, st, base)
		}
	}
}

// TestMeasureEngineSelection checks that inline and pooled shard passes
// run to completion under measure and stay deterministic across repeated
// calls: Options.Workers places the passes (0 inline, otherwise a pool),
// and a fixed seed must reproduce the exact statistics.
func TestMeasureEngineSelection(t *testing.T) {
	g, err := regular(256, 8, xrand.New(2))
	if err != nil {
		t.Fatal(err)
	}
	push, err := baseline.NewPush(256, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{0, regcast.WorkersAuto, 4} {
		a, err := measure(Options{Workers: w}, g, push, 5, 3)
		if err != nil {
			t.Fatal(err)
		}
		b, err := measure(Options{Workers: w}, g, push, 5, 3)
		if err != nil {
			t.Fatal(err)
		}
		if a != b {
			t.Errorf("Workers=%d: identical measures differ: %+v vs %+v", w, a, b)
		}
		if a.CompletedFrac < 0 || a.CompletedFrac > 1 || a.InformedFrac <= 0 {
			t.Errorf("Workers=%d: implausible stats %+v", w, a)
		}
	}
}

// TestParallelProfileDeterministicAndComplete reruns a representative
// experiment across engine worker counts — inline (0, 1) and pooled (8):
// the tables must be identical (the trace is a function of the shard
// count, not the worker count).
func TestParallelProfileDeterministicAndComplete(t *testing.T) {
	e, ok := ByID("E1")
	if !ok {
		t.Fatal("E1 not registered")
	}
	run := func(workers int) string {
		tables, err := e.Run(Options{Seed: 11, Quick: true, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		out := ""
		for _, tb := range tables {
			out += tb.String()
		}
		return out
	}
	inline := run(0)
	for _, workers := range []int{1, 8} {
		if got := run(workers); got != inline {
			t.Errorf("E1 tables differ between 0 and %d workers:\n%s\nvs\n%s", workers, inline, got)
		}
	}
}

// TestExperimentDeterministicAcrossReplicationWorkers reruns E1 with the
// replication pool at different widths; every table must be byte-identical
// (the acceptance contract of the batch migration).
func TestExperimentDeterministicAcrossReplicationWorkers(t *testing.T) {
	e, ok := ByID("E1")
	if !ok {
		t.Fatal("E1 not registered")
	}
	run := func(rw int) string {
		tables, err := e.Run(Options{Seed: 11, Quick: true, ReplicationWorkers: rw})
		if err != nil {
			t.Fatal(err)
		}
		out := ""
		for _, tb := range tables {
			out += tb.String()
		}
		return out
	}
	serial := run(0)
	for _, rw := range []int{1, 4, regcast.WorkersAuto} {
		if got := run(rw); got != serial {
			t.Errorf("E1 tables differ between ReplicationWorkers=0 and %d:\n%s\nvs\n%s", rw, serial, got)
		}
	}
}
