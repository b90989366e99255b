package regcast_test

import (
	"context"
	"fmt"
	"testing"

	"regcast"
	"regcast/internal/baseline"
	"regcast/internal/core"
)

// implicitPair is one algebraic-adjacency family in both materialisations:
// the implicit spec and its Dense twin. Both Build paths consume the
// scenario stream identically, so with equal seeds the two must replay
// bit-identical traces — the tentpole contract of the implicit fast path.
type implicitPair struct {
	name            string
	implicit, dense regcast.TopologySpec
}

func implicitPairs() []implicitPair {
	return []implicitPair{
		{"hypercube", regcast.HypercubeSpec{Dim: 8}, regcast.HypercubeSpec{Dim: 8, Dense: true}},
		{"torus", regcast.TorusSpec{Rows: 16, Cols: 16}, regcast.TorusSpec{Rows: 16, Cols: 16, Dense: true}},
		{"gnp-stream", regcast.GnpStreamSpec{N: 400, P: 16.0 / 400}, regcast.GnpStreamSpec{N: 400, P: 16.0 / 400, Dense: true}},
		{"regular-stream", regcast.RegularStreamSpec{N: 300, D: 6}, regcast.RegularStreamSpec{N: 300, D: 6, Dense: true}},
	}
}

// fingerprint reduces a Result to the fields the bit-identity contract
// covers.
func fingerprint(res regcast.Result) [6]uint64 {
	return [6]uint64{
		uint64(res.Rounds), uint64(int64(res.FirstAllInformed)), uint64(res.Informed),
		uint64(res.Transmissions), uint64(res.ChannelsDialed), hashTrace(res.InformedAt),
	}
}

// TestImplicitMatchesDenseTraces pins that every implicit family replays
// the exact trace of its materialised twin, across protocols and worker
// counts — the implicit view and the CSR view agree — and that this is one
// trace per (family, protocol): inline and pooled runs are the same.
func TestImplicitMatchesDenseTraces(t *testing.T) {
	engines := []struct {
		name string
		opts []regcast.RunnerOption
	}{
		{"sequential", nil},
		{"sharded-w1", []regcast.RunnerOption{regcast.WithWorkers(1)}},
		{"sharded-w4", []regcast.RunnerOption{regcast.WithWorkers(4)}},
	}
	protos := []struct {
		name string
		mk   func(n int) (regcast.Protocol, error)
	}{
		{"push", func(n int) (regcast.Protocol, error) { return baseline.NewPush(n, 1) }},
		{"four-choice", func(n int) (regcast.Protocol, error) { return core.New(n, 8) }},
	}
	for _, pair := range implicitPairs() {
		n := regcast.SpecNodeCount(pair.implicit)
		if n <= 0 {
			t.Fatalf("%s: SpecNodeCount = %d", pair.name, n)
		}
		if !regcast.SpecImplicit(pair.implicit) || regcast.SpecImplicit(pair.dense) {
			t.Fatalf("%s: Implicit() flags inverted", pair.name)
		}
		for _, pr := range protos {
			proto, err := pr.mk(n)
			if err != nil {
				t.Fatal(err)
			}
			run := func(spec regcast.TopologySpec, opts []regcast.RunnerOption) regcast.Result {
				sc, err := regcast.NewScenarioSpec(spec, proto, regcast.WithSeed(17))
				if err != nil {
					t.Fatal(err)
				}
				res, err := regcast.Run(context.Background(), sc, opts...)
				if err != nil {
					t.Fatal(err)
				}
				return res
			}
			var first [6]uint64
			for i, eng := range engines {
				label := fmt.Sprintf("%s/%s/%s", pair.name, pr.name, eng.name)
				imp := fingerprint(run(pair.implicit, eng.opts))
				dense := fingerprint(run(pair.dense, eng.opts))
				if imp != dense {
					t.Errorf("%s: implicit %v != dense %v", label, imp, dense)
				}
				if i == 0 {
					first = imp
				} else if imp != first {
					t.Errorf("%s: trace %v differs from the %s engine's %v", label, imp, engines[0].name, first)
				}
			}
		}
	}
}

// TestRegularStreamFacadeGolden pins one regular-stream run end to end.
// The twin tests above only compare the family with its own
// materialisation, so they cannot see the family itself change; this
// fingerprint (with graph.TestRegularStreamGolden) can. A documented
// reseed of the permutation edits it.
func TestRegularStreamFacadeGolden(t *testing.T) {
	spec, err := regcast.ParseTopologySpec("regular-stream:n=300,d=6")
	if err != nil {
		t.Fatal(err)
	}
	proto, err := baseline.NewPush(300, 1)
	if err != nil {
		t.Fatal(err)
	}
	sc, err := regcast.NewScenarioSpec(spec, proto, regcast.WithSeed(17))
	if err != nil {
		t.Fatal(err)
	}
	res, err := regcast.Run(context.Background(), sc)
	if err != nil {
		t.Fatal(err)
	}
	want := [6]uint64{25, 18, 300, 4538, 7500, 0x5131a94a60dadc5d}
	if got := fingerprint(res); got != want {
		t.Errorf("regular-stream:n=300,d=6 push, seed 17: fingerprint %#v, want %#v", got, want)
	}
	// The fingerprint is what it was before settled runs were counted; the
	// facade says which rounds were: the 7 after the last receipt.
	if res.CountedRounds != res.Rounds-res.FirstAllInformed {
		t.Errorf("CountedRounds = %d, want rounds %d − completion %d", res.CountedRounds, res.Rounds, res.FirstAllInformed)
	}
}

// TestImplicitMatchesDenseUnderFaults extends the bit-identity pin to
// the fault samplers: channel failure and message loss draw from the run
// stream in dial order, so the implicit path must consume the stream
// exactly as the CSR path does even when dials fail.
func TestImplicitMatchesDenseUnderFaults(t *testing.T) {
	for _, pair := range implicitPairs() {
		n := regcast.SpecNodeCount(pair.implicit)
		proto, err := baseline.NewPushPull(n, 2)
		if err != nil {
			t.Fatal(err)
		}
		run := func(spec regcast.TopologySpec, opts ...regcast.RunnerOption) regcast.Result {
			sc, err := regcast.NewScenarioSpec(spec, proto,
				regcast.WithSeed(23),
				regcast.WithChannelFailure(0.15),
				regcast.WithMessageLoss(0.1))
			if err != nil {
				t.Fatal(err)
			}
			res, err := regcast.Run(context.Background(), sc, opts...)
			if err != nil {
				t.Fatal(err)
			}
			return res
		}
		inline := fingerprint(run(pair.implicit))
		for _, workers := range []int{0, 4} {
			opts := []regcast.RunnerOption{regcast.WithWorkers(workers)}
			imp := fingerprint(run(pair.implicit, opts...))
			dense := fingerprint(run(pair.dense, opts...))
			if imp != dense {
				t.Errorf("%s/w%d faults: implicit %v != dense %v", pair.name, workers, imp, dense)
			}
			if imp != inline {
				t.Errorf("%s/w%d faults: trace %v differs from the default runner's %v", pair.name, workers, imp, inline)
			}
		}
	}
}

// TestImplicitEdgeCensusFallback pins the edge-use census on implicit
// topologies. The census looks an edge up through Topology.Neighbor, so it
// changes no view (phonecall's TestEdgeCensusKeepsFastPath asserts the
// engine keeps it); here the per-round |U(t)| series must equal the dense
// twin's on the default runner and on a worker pool.
func TestImplicitEdgeCensusFallback(t *testing.T) {
	pair := implicitPairs()[0] // hypercube dim 8
	n := regcast.SpecNodeCount(pair.implicit)
	proto, err := core.New(n, 8)
	if err != nil {
		t.Fatal(err)
	}
	run := func(spec regcast.TopologySpec, opts ...regcast.RunnerOption) regcast.Result {
		sc, err := regcast.NewScenarioSpec(spec, proto,
			regcast.WithSeed(5), regcast.WithRecordRounds(), regcast.WithTrackEdgeUse())
		if err != nil {
			t.Fatal(err)
		}
		res, err := regcast.Run(context.Background(), sc, opts...)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	dense := run(pair.dense)
	if len(dense.PerRound) == 0 || dense.PerRound[0].UnusedEdgeNodes == 0 {
		t.Fatal("census never reported an unused-edge node; nothing was tracked")
	}
	for _, opts := range [][]regcast.RunnerOption{nil, {regcast.WithWorkers(4)}} {
		imp := run(pair.implicit, opts...)
		if fingerprint(imp) != fingerprint(dense) {
			t.Fatalf("census run: implicit %v != dense %v", fingerprint(imp), fingerprint(dense))
		}
		if len(imp.PerRound) != len(dense.PerRound) {
			t.Fatalf("per-round lengths: implicit %d, dense %d", len(imp.PerRound), len(dense.PerRound))
		}
		for r := range imp.PerRound {
			if imp.PerRound[r].UnusedEdgeNodes != dense.PerRound[r].UnusedEdgeNodes {
				t.Fatalf("round %d: |U(t)| implicit %d, dense %d",
					r, imp.PerRound[r].UnusedEdgeNodes, dense.PerRound[r].UnusedEdgeNodes)
			}
		}
	}
}

// TestParseTopologySpecRoundTrips checks the string form builds the same
// topologies the programmatic specs do, and that malformed specs are
// rejected with the offending detail.
func TestParseTopologySpecRoundTrips(t *testing.T) {
	good := []struct {
		in       string
		n        int
		implicit bool
	}{
		{"regular:n=512,d=8", 512, false},
		{"config:n=256,d=6,erased", 256, false},
		{"gnp:n=300,p=0.05", 300, false},
		{"hypercube:dim=9", 512, true},
		{"hypercube:dim=9,dense", 512, false},
		{"torus:rows=8,cols=16", 128, true},
		{"torus:rows=8,cols=16,dense=true", 128, false},
		{"gnp-stream:n=200,p=0.1", 200, true},
		{"regular-stream:n=200,d=4", 200, true},
		{"overlay:n=128,d=8,join=0.01,leave=0.01,mix=4", 256, false},
	}
	for _, tc := range good {
		spec, err := regcast.ParseTopologySpec(tc.in)
		if err != nil {
			t.Errorf("%q: %v", tc.in, err)
			continue
		}
		if got := regcast.SpecNodeCount(spec); got != tc.n {
			t.Errorf("%q: SpecNodeCount = %d, want %d", tc.in, got, tc.n)
		}
		if got := regcast.SpecImplicit(spec); got != tc.implicit {
			t.Errorf("%q: SpecImplicit = %v, want %v", tc.in, got, tc.implicit)
		}
		topo, err := spec.Build(0, regcast.NewRand(1))
		if err != nil {
			t.Errorf("%q: Build: %v", tc.in, err)
			continue
		}
		if topo.NumNodes() != tc.n {
			t.Errorf("%q: built %d nodes, want %d", tc.in, topo.NumNodes(), tc.n)
		}
	}
	bad := []string{
		"",                              // no family
		"mesh:n=100",                    // unknown family
		"hypercube:dim=9,n=512",         // unknown key for the family
		"hypercube:dim=abc",             // malformed int
		"gnp:n=100,p=lots",              // malformed float
		"torus:rows=8,rows=9",           // duplicate key
		"hypercube:dim=9,dense=perhaps", // malformed bool
		"regular:=8",                    // empty key
	}
	for _, in := range bad {
		if _, err := regcast.ParseTopologySpec(in); err == nil {
			t.Errorf("%q: accepted", in)
		}
	}
	// Well-formed but out of range: the spec parses and Build refuses it.
	for _, in := range []string{"gnp:n=64,p=NaN", "gnp-stream:n=64,p=NaN", "gnp:n=64,p=1.5"} {
		spec, err := regcast.ParseTopologySpec(in)
		if err != nil {
			t.Errorf("%q: %v", in, err)
			continue
		}
		if _, err := spec.Build(0, regcast.NewRand(1)); err == nil {
			t.Errorf("%q: built", in)
		}
	}

	// The parsed spec replays the exact trace of the programmatic one.
	proto, err := baseline.NewPush(512, 1)
	if err != nil {
		t.Fatal(err)
	}
	run := func(spec regcast.TopologySpec) [6]uint64 {
		sc, err := regcast.NewScenarioSpec(spec, proto, regcast.WithSeed(4))
		if err != nil {
			t.Fatal(err)
		}
		res, err := regcast.Run(context.Background(), sc)
		if err != nil {
			t.Fatal(err)
		}
		return fingerprint(res)
	}
	parsed, err := regcast.ParseTopologySpec("hypercube:dim=9")
	if err != nil {
		t.Fatal(err)
	}
	if run(parsed) != run(regcast.HypercubeSpec{Dim: 9}) {
		t.Error("parsed hypercube spec diverged from the programmatic spec")
	}
}
