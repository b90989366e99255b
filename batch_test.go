package regcast_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"

	"regcast"
)

// batchFixture builds a small scenario every batch test shares.
func batchFixture(t testing.TB, n int, opts ...regcast.ScenarioOption) regcast.Scenario {
	t.Helper()
	g, err := regcast.NewRegularGraph(n, 8, regcast.NewRand(6))
	if err != nil {
		t.Fatal(err)
	}
	proto, err := regcast.NewFourChoice(n, 8)
	if err != nil {
		t.Fatal(err)
	}
	sc, err := regcast.NewScenario(regcast.Static(g), proto, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return sc
}

// TestBatchDeterminismAcrossReplicationWorkers is the batch layer's core
// contract: for a fixed seed, the aggregate JSON is byte-identical for
// every ReplicationWorkers value. The -race CI step runs this test too,
// exercising the pool under the race detector.
func TestBatchDeterminismAcrossReplicationWorkers(t *testing.T) {
	sc := batchFixture(t, 256, regcast.WithSeed(42))
	marshal := func(rw int) []byte {
		res, err := regcast.Batch{
			Scenario:           sc,
			Replications:       8,
			ReplicationWorkers: rw,
			RandomizeSource:    true,
		}.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		buf, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		return buf
	}
	base := marshal(0)
	for _, rw := range []int{1, 4, regcast.WorkersAuto} {
		if got := marshal(rw); !bytes.Equal(got, base) {
			t.Errorf("ReplicationWorkers=%d changes the aggregate JSON:\n%s\nvs (serial)\n%s", rw, got, base)
		}
	}
	if !strings.Contains(string(base), `"replications":8`) {
		t.Errorf("aggregate JSON missing replication count: %s", base)
	}
}

// TestBatchAggregates sanity-checks the aggregate contents on a batch
// where every run completes.
func TestBatchAggregates(t *testing.T) {
	sc := batchFixture(t, 256, regcast.WithSeed(7))
	res, err := regcast.Batch{
		Scenario:        sc,
		Replications:    5,
		RandomizeSource: true,
		KeepResults:     true,
	}.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Replications != 5 || len(res.Results) != 5 {
		t.Fatalf("replications %d, kept %d, want 5/5", res.Replications, len(res.Results))
	}
	if res.Completed != 5 || res.CompletedFrac() != 1 {
		t.Errorf("four-choice at n=256 should complete every run: %d/5", res.Completed)
	}
	if res.Rounds.N != 5 || res.Rounds.Mean <= 0 || res.Rounds.Min > res.Rounds.Mean || res.Rounds.Max < res.Rounds.Mean {
		t.Errorf("implausible rounds aggregate: %+v", res.Rounds)
	}
	if res.Transmissions.Mean <= 0 || res.TxPerNode.Mean <= 0 {
		t.Errorf("implausible transmission aggregates: %+v / %+v", res.Transmissions, res.TxPerNode)
	}
	if res.InformedFrac.Mean != 1 {
		t.Errorf("informed frac %v, want 1", res.InformedFrac.Mean)
	}
	if res.Rounds.P10 > res.Rounds.P50 || res.Rounds.P50 > res.Rounds.P90 {
		t.Errorf("quantiles not monotone: %+v", res.Rounds)
	}
	// Replications re-derive their seeds, so the kept results must not all
	// be the same trace (sources are randomised too).
	same := true
	for _, r := range res.Results[1:] {
		if r.Transmissions != res.Results[0].Transmissions {
			same = false
		}
	}
	if same {
		t.Error("all replications produced identical transmission counts; per-replication seeding is broken")
	}
	// Without KeepResults nothing is retained.
	res2, err := regcast.Batch{Scenario: sc, Replications: 2}.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res2.Results != nil {
		t.Error("Results retained without KeepResults")
	}
}

// deadSlotTopo wraps a graph with extra never-alive id slots past the
// graph's nodes — the shape of overlay topologies with headroom.
type deadSlotTopo struct {
	g    *regcast.Graph
	dead int
}

func (t deadSlotTopo) NumNodes() int         { return t.g.NumNodes() + t.dead }
func (t deadSlotTopo) Degree(v int) int      { return t.g.Degree(v) }
func (t deadSlotTopo) Neighbor(v, i int) int { return t.g.Neighbor(v, i) }
func (t deadSlotTopo) Alive(v int) bool      { return v < t.g.NumNodes() }

// stepperTopo is a static graph that claims to churn.
type stepperTopo struct{ regcast.Topology }

func (stepperTopo) Step(round int) []int { return nil }

// TestBatchRandomizeSourceSkipsDeadSlots: on a topology whose id space
// includes dead slots, every randomized source must land on an alive
// node — for every seed, deterministically.
func TestBatchRandomizeSourceSkipsDeadSlots(t *testing.T) {
	g, err := regcast.NewRegularGraph(64, 8, regcast.NewRand(4))
	if err != nil {
		t.Fatal(err)
	}
	proto, err := regcast.NewFourChoice(64, 8)
	if err != nil {
		t.Fatal(err)
	}
	topo := deadSlotTopo{g: g, dead: 64} // half the id space is dead
	for seed := uint64(1); seed <= 20; seed++ {
		sc, err := regcast.NewScenario(topo, proto, regcast.WithSeed(seed))
		if err != nil {
			t.Fatal(err)
		}
		res, err := regcast.Batch{
			Scenario:           sc,
			Replications:       4,
			ReplicationWorkers: 2,
			RandomizeSource:    true,
		}.Run(context.Background())
		if err != nil {
			t.Fatalf("seed %d: %v (a dead source slot leaked through RandomizeSource)", seed, err)
		}
		if res.Replications != 4 {
			t.Fatalf("seed %d: %d replications", seed, res.Replications)
		}
	}
}

// TestBatchValidation covers the fail-fast configuration checks.
func TestBatchValidation(t *testing.T) {
	sc := batchFixture(t, 128)
	ctx := context.Background()
	cases := []struct {
		name string
		b    regcast.Batch
		want string
	}{
		{"no replications", regcast.Batch{Scenario: sc}, "Replications"},
		{"no scenario", regcast.Batch{Replications: 3}, "needs a Scenario"},
		{"bad workers", regcast.Batch{Scenario: sc, Replications: 3, ReplicationWorkers: -2}, "ReplicationWorkers"},
		{"rng scenario", regcast.Batch{
			Scenario:     batchFixture(t, 128, regcast.WithRNG(regcast.NewRand(3))),
			Replications: 3,
		}, "WithSeed"},
		{"observer scenario", regcast.Batch{
			Scenario:     batchFixture(t, 128, regcast.WithObserver(regcast.ObserverFuncs{})),
			Replications: 3,
		}, "observers"},
		{"dynamic topology scenario", func() regcast.Batch {
			g, err := regcast.NewRegularGraph(128, 8, regcast.NewRand(6))
			if err != nil {
				t.Fatal(err)
			}
			proto, err := regcast.NewFourChoice(128, 8)
			if err != nil {
				t.Fatal(err)
			}
			dyn, err := regcast.NewScenario(stepperTopo{regcast.Static(g)}, proto)
			if err != nil {
				t.Fatal(err)
			}
			return regcast.Batch{Scenario: dyn, Replications: 3}
		}(), "Stepper"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if _, err := c.b.Run(ctx); err == nil || !strings.Contains(err.Error(), c.want) {
				t.Errorf("error %v, want mention of %q", err, c.want)
			}
		})
	}
}

// TestBatchErrorPropagation: a failing replication surfaces
// deterministically (lowest failing index), whatever the pool width.
func TestBatchErrorPropagation(t *testing.T) {
	boom := errors.New("boom")
	for _, rw := range []int{0, 1, 4} {
		err := regcast.Replicate(context.Background(), 1, 16, rw, func(rep int, rng *regcast.Rand) error {
			if rep == 5 || rep == 11 {
				return fmt.Errorf("rep %d: %w", rep, boom)
			}
			return nil
		})
		if err == nil || !errors.Is(err, boom) {
			t.Fatalf("workers=%d: error %v, want boom", rw, err)
		}
		if !strings.Contains(err.Error(), "rep 5") {
			t.Errorf("workers=%d: got %v, want the lowest failing replication (rep 5)", rw, err)
		}
	}
}

// TestBatchContextCancellation: a cancelled context stops the pool and
// surfaces ctx.Err().
func TestBatchContextCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var ran atomic.Int64
	err := regcast.Replicate(ctx, 1, 1000, 2, func(rep int, rng *regcast.Rand) error {
		if ran.Add(1) == 3 {
			cancel()
		}
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error %v, want context.Canceled", err)
	}
	if n := ran.Load(); n >= 1000 {
		t.Errorf("cancellation did not stop the pool: %d replications ran", n)
	}
}

// TestReplicateStreamsMatchSplitN pins Replicate's seeding discipline to
// the documented xrand contract: child rep gets the rep-th split of the
// master, independent of pool width.
func TestReplicateStreamsMatchSplitN(t *testing.T) {
	const reps = 5
	want := regcast.NewRand(77).SplitN(reps)
	wantFirst := make([]uint64, reps)
	for i, rng := range want {
		wantFirst[i] = rng.Uint64()
	}
	got := make([]uint64, reps)
	if err := regcast.Replicate(context.Background(), 77, reps, 3, func(rep int, rng *regcast.Rand) error {
		got[rep] = rng.Uint64()
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if got[i] != wantFirst[i] {
			t.Errorf("rep %d stream head %d, want %d", i, got[i], wantFirst[i])
		}
	}
}
