package regcast_test

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"testing"

	"regcast"
	"regcast/internal/core"
)

// overlayChurnScenario is the spec scenario the churn determinism tests
// share: a churning OverlaySpec — dynamic topology, rebuilt fresh per
// replication by the batch layer.
func overlayChurnScenario(t testing.TB, seed uint64) regcast.Scenario {
	t.Helper()
	const n, d = 192, 8
	proto, err := core.NewAlgorithm1(n)
	if err != nil {
		t.Fatal(err)
	}
	sc, err := regcast.NewScenarioSpec(
		regcast.OverlaySpec{N: n, D: d, JoinProb: 0.02, LeaveProb: 0.02, MixSteps: 3},
		proto, regcast.WithSeed(seed))
	if err != nil {
		t.Fatal(err)
	}
	return sc
}

// TestBatchAcceptsDynamicSpec is the tentpole's batch contract: a batch
// over a dynamic (churning) TopologySpec scenario runs — no Batch.New
// escape hatch — and its aggregate JSON and CSV report bytes are
// identical for every ReplicationWorkers value and every engine worker
// count with the same trace contract (the sharded engine at any worker
// count).
func TestBatchAcceptsDynamicSpec(t *testing.T) {
	runReport := func(repWorkers, engineWorkers int) ([]byte, []byte) {
		sweep := regcast.Sweep{
			Name:               "churn-spec",
			Seed:               99,
			Replications:       6,
			ReplicationWorkers: repWorkers,
			Runner:             regcast.NewRunner(regcast.WithWorkers(engineWorkers)),
			Build: func(p regcast.Point) (regcast.Batch, error) {
				return regcast.Batch{Scenario: overlayChurnScenario(t, p.Seed), RandomizeSource: true}, nil
			},
		}
		report, err := sweep.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		var j, c bytes.Buffer
		if err := report.WriteJSON(&j); err != nil {
			t.Fatal(err)
		}
		if err := report.WriteCSV(&c); err != nil {
			t.Fatal(err)
		}
		return j.Bytes(), c.Bytes()
	}

	baseJSON, baseCSV := runReport(0, 1)
	if !strings.Contains(string(baseJSON), `"replications": 6`) {
		t.Fatalf("implausible churn-spec report:\n%s", baseJSON)
	}
	for _, rw := range []int{1, 4} {
		for _, ew := range []int{1, 4} {
			gotJSON, gotCSV := runReport(rw, ew)
			if !bytes.Equal(gotJSON, baseJSON) {
				t.Errorf("ReplicationWorkers=%d engineWorkers=%d changes the JSON report:\n%s\nvs\n%s", rw, ew, gotJSON, baseJSON)
			}
			if !bytes.Equal(gotCSV, baseCSV) {
				t.Errorf("ReplicationWorkers=%d engineWorkers=%d changes the CSV report", rw, ew)
			}
		}
	}
}

// TestSpecScenarioRunDeterminism: a spec scenario rebuilds its topology
// every Run from its own seed, so repeated runs are identical and the
// scenario value stays reusable (nothing is memoised into it).
func TestSpecScenarioRunDeterminism(t *testing.T) {
	sc := overlayChurnScenario(t, 7)
	a, err := regcast.Run(context.Background(), sc)
	if err != nil {
		t.Fatal(err)
	}
	b, err := regcast.Run(context.Background(), sc)
	if err != nil {
		t.Fatal(err)
	}
	aj, _ := json.Marshal(a)
	bj, _ := json.Marshal(b)
	if !bytes.Equal(aj, bj) {
		t.Fatalf("two runs of the same spec scenario differ:\n%s\nvs\n%s", aj, bj)
	}
	if a.AliveNodes == 0 || a.Rounds == 0 {
		t.Fatalf("implausible spec-scenario result: %+v", a)
	}
}

// TestStaticSpecsBuild covers every static spec family end to end: the
// built topologies have the declared shape and run a broadcast through
// the public Runner.
func TestStaticSpecsBuild(t *testing.T) {
	cases := []struct {
		name string
		spec regcast.TopologySpec
		n    int
	}{
		{"regular", regcast.RegularGraphSpec{N: 128, D: 8}, 128},
		{"config-model", regcast.ConfigurationModelSpec{N: 128, D: 8}, 128},
		{"config-model-erased", regcast.ConfigurationModelSpec{N: 128, D: 8, Erased: true}, 128},
		{"gnp", regcast.GnpSpec{N: 128, P: 0.1}, 128},
		{"hypercube", regcast.HypercubeSpec{Dim: 7}, 128},
		{"torus", regcast.TorusSpec{Rows: 8, Cols: 16}, 128},
		{"overlay-static", regcast.OverlaySpec{N: 128, D: 8}, 256}, // headroom defaults to N: id space 2n
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			topo, err := tc.spec.Build(0, regcast.NewRand(5))
			if err != nil {
				t.Fatal(err)
			}
			if topo.NumNodes() != tc.n {
				t.Fatalf("built %d node ids, want %d", topo.NumNodes(), tc.n)
			}
			proto, err := regcast.NewFourChoice(128, 8)
			if err != nil {
				t.Fatal(err)
			}
			sc, err := regcast.NewScenarioSpec(tc.spec, proto, regcast.WithSeed(3))
			if err != nil {
				t.Fatal(err)
			}
			res, err := regcast.Run(context.Background(), sc)
			if err != nil {
				t.Fatal(err)
			}
			if res.Rounds == 0 || res.Informed < 2 {
				t.Fatalf("implausible run on %s: %+v", tc.name, res)
			}
		})
	}
}

// TestSpecScenarioValidation pins the deferred validation contract:
// construction-time errors for what needs no topology, build-time errors
// for what does.
func TestSpecScenarioValidation(t *testing.T) {
	proto, err := regcast.NewFourChoice(64, 8)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := regcast.NewScenarioSpec(nil, proto); err == nil {
		t.Error("nil spec accepted")
	}
	if _, err := regcast.NewScenarioSpec(regcast.RegularGraphSpec{N: 64, D: 8}, nil); err == nil {
		t.Error("nil protocol accepted")
	}
	if _, err := regcast.NewScenarioSpec(regcast.RegularGraphSpec{N: 64, D: 8}, proto,
		regcast.WithSource(-1)); err == nil {
		t.Error("negative source accepted at construction")
	}
	// Out-of-range source only surfaces once the topology exists.
	sc, err := regcast.NewScenarioSpec(regcast.RegularGraphSpec{N: 64, D: 8}, proto,
		regcast.WithSource(64))
	if err != nil {
		t.Fatalf("deferred-validation scenario rejected early: %v", err)
	}
	if _, err := regcast.Run(context.Background(), sc); err == nil || !strings.Contains(err.Error(), "out of range") {
		t.Errorf("out-of-range source on a built topology: error %v, want out-of-range", err)
	}
	// A spec whose Build fails surfaces the builder's error.
	bad, err := regcast.NewScenarioSpec(regcast.RegularGraphSpec{N: 8, D: 9}, proto)
	if err != nil {
		t.Fatalf("spec construction should not build: %v", err)
	}
	if _, err := regcast.Run(context.Background(), bad); err == nil {
		t.Error("failing Build did not surface at run time")
	}
	// FixedTopology is unwrapped eagerly, so a constant spec over a
	// dynamic (Stepper) instance hits the batch layer's shared-instance
	// rejection exactly like NewScenario would — replications must not
	// share one churning topology.
	churnTopo, err := regcast.OverlaySpec{N: 64, D: 8, JoinProb: 0.01, LeaveProb: 0.01}.Build(0, regcast.NewRand(2))
	if err != nil {
		t.Fatal(err)
	}
	proto64, err := regcast.NewFourChoice(64, 8)
	if err != nil {
		t.Fatal(err)
	}
	fixedDyn, err := regcast.NewScenarioSpec(regcast.FixedTopology(churnTopo), proto64)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := (regcast.Batch{Scenario: fixedDyn, Replications: 3}).Run(context.Background()); err == nil ||
		!strings.Contains(err.Error(), "Stepper") {
		t.Errorf("batch over FixedTopology(stepper) spec: error %v, want the shared-Stepper rejection", err)
	}
}
