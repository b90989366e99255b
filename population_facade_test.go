package regcast

import (
	"context"
	"encoding/json"
	"reflect"
	"testing"
)

// TestPopulationRunWorkerIndependent pins the facade-level bit-identity
// guarantee: Run on a PopulationScenario produces the same result —
// Result.Population included — for inline shard passes (Workers 0 and 1)
// and a four-worker pool.
func TestPopulationRunWorkerIndependent(t *testing.T) {
	le, err := NewLeaderElection(250)
	if err != nil {
		t.Fatal(err)
	}
	sc := PopulationScenario{N: 250, Pair: le, Init: InitAllLeaders, Seed: 9}
	var want Result
	for i, workers := range []int{0, 1, 4} {
		res, err := Run(context.Background(), sc, WithWorkers(workers))
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			want = res
			if !res.Population.Converged {
				t.Fatalf("run did not converge in %d steps", res.Population.Steps)
			}
			continue
		}
		if !reflect.DeepEqual(res, want) {
			t.Fatalf("workers=%d result differs from workers=0:\n got %+v\nwant %+v", workers, res, want)
		}
	}
}

// TestBatchPopulationReplicationWorkerIndependent pins the batch-level
// guarantee: the JSON-serialised aggregate is byte-identical for every
// ReplicationWorkers value.
func TestBatchPopulationReplicationWorkerIndependent(t *testing.T) {
	le, err := NewLeaderElection(120)
	if err != nil {
		t.Fatal(err)
	}
	base := Batch{
		Scenario:     PopulationScenario{N: 120, Pair: le, Init: InitLeaderless, Seed: 4},
		Replications: 8,
	}
	var want []byte
	for i, workers := range []int{0, 1, 4} {
		b := base
		b.ReplicationWorkers = workers
		res, err := b.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		buf, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			want = buf
			if res.Completed == 0 {
				t.Fatal("no replication converged")
			}
			continue
		}
		if string(buf) != string(want) {
			t.Fatalf("ReplicationWorkers=%d aggregate differs:\n got %s\nwant %s", workers, buf, want)
		}
	}
}

func TestBatchPopulationMetricMapping(t *testing.T) {
	le, err := NewLeaderElection(100)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Batch{
		Scenario:     PopulationScenario{N: 100, Pair: le, Init: InitAllLeaders, Seed: 2},
		Replications: 6,
		KeepResults:  true,
	}.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Results) != 6 {
		t.Fatalf("kept %d results, want 6", len(res.Results))
	}
	conv, rounds := 0, newMetricAgg()
	for _, r := range res.Results {
		if r.Population.Converged {
			conv++
			rounds.add(float64(r.Population.ConvergedAt))
		}
	}
	if res.Completed != conv {
		t.Fatalf("Completed %d, want converged count %d", res.Completed, conv)
	}
	if res.InformedFrac.Mean != float64(conv)/6 {
		t.Fatalf("InformedFrac mean %v, want convergence rate %v", res.InformedFrac.Mean, float64(conv)/6)
	}
	if res.Rounds != rounds.aggregate() {
		t.Fatalf("Rounds = %+v, want the converged runs' %+v", res.Rounds, rounds.aggregate())
	}
}

// TestBatchPopulationMatchesManualFold is the oracle for the population
// fold: every replication re-run by hand from NewRand(seed).SplitN(R) and
// folded with the documented mapping must reproduce Batch.Run exactly —
// for an ensemble that converges, one censored at MaxSteps, and one that
// converges only in part.
func TestBatchPopulationMatchesManualFold(t *testing.T) {
	le, err := NewLeaderElection(96)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name          string
		sc            PopulationScenario
		wantCompleted func(completed, reps int) bool
	}{
		{"converged", PopulationScenario{N: 96, Pair: le, Init: InitAllLeaders},
			func(c, r int) bool { return c == r }},
		{"censored", PopulationScenario{N: 96, Pair: le, Init: InitAllLeaders, MaxSteps: 2},
			func(c, r int) bool { return c == 0 }},
		{"partial", PopulationScenario{N: 512, Pair: NewApproxMajority(), Init: InitMajority(0.51), MaxSteps: 19},
			func(c, r int) bool { return 0 < c && c < r }},
	} {
		for _, seed := range []uint64{3, 77} {
			const reps = 12
			sc := tc.sc
			sc.Seed = seed
			got, err := Batch{Scenario: sc, Replications: reps, ReplicationWorkers: 4}.Run(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			if !tc.wantCompleted(got.Completed, reps) {
				t.Fatalf("%s seed %d: %d/%d converged; the case no longer exercises its branch", tc.name, seed, got.Completed, reps)
			}

			want := BatchResult{Replications: reps}
			rounds, tx, txPerNode, rate := newMetricAgg(), newMetricAgg(), newMetricAgg(), newMetricAgg()
			for _, rng := range NewRand(seed).SplitN(reps) {
				sc := tc.sc
				sc.rng = rng
				res, err := Run(context.Background(), sc)
				if err != nil {
					t.Fatal(err)
				}
				p := res.Population
				inter, ind := p.Interactions, 0.0
				if p.Converged {
					want.Completed++
					rounds.add(float64(p.ConvergedAt))
					inter, ind = p.ConvergedInteractions, 1
				}
				tx.add(float64(inter))
				txPerNode.add(float64(inter) / float64(sc.N))
				rate.add(ind)
			}
			want.Rounds, want.Transmissions, want.TxPerNode = rounds.aggregate(), tx.aggregate(), txPerNode.aggregate()
			want.InformedFrac = rate.aggregate()
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s seed %d: Batch.Run differs from the manual fold:\n got %+v\nwant %+v", tc.name, seed, got, want)
			}
		}
	}
}

func TestBatchPopulationValidation(t *testing.T) {
	le, _ := NewLeaderElection(16)
	sc := PopulationScenario{N: 16, Pair: le, Seed: 1}
	for name, b := range map[string]Batch{
		"no-reps":          {Scenario: sc},
		"observer":         {Scenario: PopulationScenario{N: 16, Pair: le, Observer: observerStub{}}, Replications: 1},
		"randomize-source": {Scenario: sc, Replications: 1, RandomizeSource: true},
		"typed-nil":        {Scenario: (*PopulationScenario)(nil), Replications: 1},
	} {
		if _, err := b.Run(context.Background()); err == nil {
			t.Errorf("%s: Run accepted an invalid batch", name)
		}
	}
	if _, err := (Batch{Scenario: &sc, Replications: 2}).Run(context.Background()); err != nil {
		t.Errorf("pointer-form population batch rejected: %v", err)
	}
}

type observerStub struct{}

func (observerStub) OnSuperStep(SuperStepStats) {}

// TestBatchPopulationRoundsAreConvergenceSteps pins what E22's "steps"
// columns read: a population batch folds Rounds from each converged run's
// FirstAllInformed, which is its ConvergedAt (the super-step the measure
// first reached 1), not the run's Steps, which go on through the
// confirmation window. On Herman's ring from three tokens Rounds.Mean is
// the mean ConvergedAt of the kept runs and differs from their mean Steps.
func TestBatchPopulationRoundsAreConvergenceSteps(t *testing.T) {
	const n, reps = 15, 40
	hm, err := NewHermanRing(n)
	if err != nil {
		t.Fatal(err)
	}
	init, err := HermanInitTokens(n, 3)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Batch{
		Scenario:     PopulationScenario{N: n, Ring: hm, Init: init, Seed: 5},
		Replications: reps,
		KeepResults:  true,
	}.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != reps {
		t.Fatalf("%d of %d runs converged", res.Completed, reps)
	}
	converged, steps := newMetricAgg(), newMetricAgg()
	for _, r := range res.Results {
		converged.add(float64(r.Population.ConvergedAt))
		steps.add(float64(r.Population.Steps))
	}
	if got, want := res.Rounds.Mean, converged.aggregate().Mean; got != want {
		t.Fatalf("Rounds.Mean = %v, want the mean ConvergedAt %v", got, want)
	}
	if res.Rounds.Mean == steps.aggregate().Mean {
		t.Fatalf("Rounds.Mean equals the mean Steps %v: the case no longer tells them apart", res.Rounds.Mean)
	}
}
