package regcast_test

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"regcast"
	"regcast/internal/baseline"
	"regcast/internal/core"
	"regcast/internal/graph"
	"regcast/internal/phonecall"
)

// implicitPair is one algebraic-adjacency family in both materialisations:
// the implicit spec and its dense twin. Both Build paths consume the
// scenario stream identically, so with equal seeds the two must replay
// bit-identical traces — the tentpole contract of the implicit fast path.
type implicitPair struct {
	name            string
	implicit, dense regcast.TopologySpec
}

// denseTwin builds its implicit spec's topology from the same stream and
// runs on graph.Materialize of the family: the CSR view of the same
// adjacency.
type denseTwin struct{ implicit regcast.TopologySpec }

func (s denseTwin) Build(rep int, rng *regcast.Rand) (regcast.Topology, error) {
	topo, err := s.implicit.Build(rep, rng)
	if err != nil {
		return nil, err
	}
	g, err := graph.Materialize(topo.(phonecall.Implicit).F)
	if err != nil {
		return nil, err
	}
	return regcast.Static(g), nil
}

func implicitPairs() []implicitPair {
	pairs := []implicitPair{
		{name: "hypercube", implicit: regcast.HypercubeSpec{Dim: 8}},
		{name: "torus", implicit: regcast.TorusSpec{Rows: 16, Cols: 16}},
		{name: "gnp-stream", implicit: regcast.GnpStreamSpec{N: 400, P: 16.0 / 400}},
		{name: "regular-stream", implicit: regcast.RegularStreamSpec{N: 300, D: 6}},
	}
	for i := range pairs {
		pairs[i].dense = denseTwin{pairs[i].implicit}
	}
	return pairs
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
	run := func(spec regcast.TopologySpec, opts ...regcast.RunnerOption) (regcast.Result, []regcast.RoundStats) {
		obs := &recordingObserver{}
		sc, err := regcast.NewScenarioSpec(spec, proto,
			regcast.WithSeed(5), regcast.WithObserver(obs), regcast.WithTrackEdgeUse())
		if err != nil {
			t.Fatal(err)
		}
		res, err := regcast.Run(context.Background(), sc, opts...)
		if err != nil {
			t.Fatal(err)
		}
		return res, obs.rounds
	}
	dense, denseRounds := run(pair.dense)
	if len(denseRounds) == 0 || denseRounds[0].UnusedEdgeNodes == 0 {
		t.Fatal("census never reported an unused-edge node; nothing was tracked")
	}
	for _, opts := range [][]regcast.RunnerOption{nil, {regcast.WithWorkers(4)}} {
		imp, impRounds := run(pair.implicit, opts...)
		if fingerprint(imp) != fingerprint(dense) {
			t.Fatalf("census run: implicit %v != dense %v", fingerprint(imp), fingerprint(dense))
		}
		if len(impRounds) != len(denseRounds) {
			t.Fatalf("per-round lengths: implicit %d, dense %d", len(impRounds), len(denseRounds))
		}
		for r := range impRounds {
			if impRounds[r].UnusedEdgeNodes != denseRounds[r].UnusedEdgeNodes {
				t.Fatalf("round %d: |U(t)| implicit %d, dense %d",
					r, impRounds[r].UnusedEdgeNodes, denseRounds[r].UnusedEdgeNodes)
			}
		}
	}
}

// goodSpecs are well-formed topology specs with the id space and
// implicitness each builds; badSpecs are rejected by the parser.
var (
	goodSpecs = []struct {
		in       string
		n        int
		implicit bool
	}{
		{"regular:n=512,d=8", 512, false},
		{"config:n=256,d=6,erased", 256, false},
		{"gnp:n=300,p=0.05", 300, false},
		{"hypercube:dim=9", 512, true},
		{"torus:rows=8,cols=16", 128, true},
		{"gnp-stream:n=200,p=0.1", 200, true},
		{"regular-stream:n=200,d=4", 200, true},
		{"overlay:n=128,d=8,join=0.01,leave=0.01,mix=4", 256, false},
	}
	badSpecs = []string{
		"",                                // no family
		"mesh:n=100",                      // unknown family
		"hypercube:dim=9,n=512",           // unknown key for the family
		"hypercube:dim=abc",               // malformed int
		"gnp:n=100,p=lots",                // malformed float
		"torus:rows=8,rows=9",             // duplicate key
		"config:n=64,d=4,erased=perhaps",  // malformed bool
		"hypercube:dim=9,dense",           // one representation per family
		"torus:rows=8,cols=16,dense=true", // likewise, spelt out
		"regular:=8",                      // empty key
		"gnp:n=64,p=NaN",                  // NaN probability
		"gnp-stream:n=64,p=NaN",           // NaN probability
		"gnp:n=64,p=1.5",                  // probability above 1
		"overlay:n=64,d=8,leave=-0.1",     // negative probability
		"regular:n=-512,d=8",              // negative count
		"hypercube:dim=-1",                // negative dimension
		"hypercube:dim=64",                // 2^64 ids
		"torus:rows=65536,cols=65536",     // 2^32 ids
		"overlay:n=2000000000,d=8",        // 4e9 ids with the default headroom
	}
)

// TestParseTopologySpecRoundTrips checks the string form builds the same
// topologies the programmatic specs do, and that malformed specs are
// rejected with the offending detail.
func TestParseTopologySpecRoundTrips(t *testing.T) {
	for _, tc := range goodSpecs {
		spec, err := regcast.ParseTopologySpec(tc.in)
		if err != nil {
			t.Errorf("%q: %v", tc.in, err)
			continue
		}
		if got := regcast.SpecNodeCount(spec); got != tc.n {
			t.Errorf("%q: SpecNodeCount = %d, want %d", tc.in, got, tc.n)
		}
		topo, err := spec.Build(0, regcast.NewRand(1))
		if err != nil {
			t.Errorf("%q: Build: %v", tc.in, err)
			continue
		}
		if _, got := topo.(regcast.ImplicitViewer); got != tc.implicit {
			t.Errorf("%q: built an implicit topology: %v, want %v", tc.in, got, tc.implicit)
		}
		if topo.NumNodes() != tc.n {
			t.Errorf("%q: built %d nodes, want %d", tc.in, topo.NumNodes(), tc.n)
		}
	}
	for _, in := range badSpecs {
		if _, err := regcast.ParseTopologySpec(in); err == nil {
			t.Errorf("%q: accepted", in)
		}
	}
	// In range for the parser, refused by the family's Build.
	for _, in := range []string{"regular:n=9,d=3", "overlay:n=8,d=8"} {
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

// FuzzParseTopologySpec feeds arbitrary strings to the parser, seeded with
// TestParseTopologySpecRoundTrips's inputs. It must never panic; a spec it
// accepts has every integer parameter in [0, math.MaxInt32], every number
// a probability in [0, 1], and an id space SpecNodeCount reports without
// panicking, inside the int32 id range; a value that reads as NaN or as a
// negative number is never accepted.
func FuzzParseTopologySpec(f *testing.F) {
	for _, tc := range goodSpecs {
		f.Add(tc.in)
	}
	for _, in := range badSpecs {
		f.Add(in)
	}
	f.Fuzz(func(t *testing.T, in string) {
		spec, err := regcast.ParseTopologySpec(in)
		if _, params, _ := strings.Cut(in, ":"); err == nil && params != "" {
			for _, kv := range strings.Split(params, ",") {
				_, v, _ := strings.Cut(kv, "=")
				if x, _ := strconv.ParseFloat(strings.TrimSpace(v), 64); math.IsNaN(x) || x < 0 {
					t.Fatalf("%q: accepted the value %q", in, v)
				}
			}
		}
		if err != nil {
			return
		}
		fields := reflect.ValueOf(spec)
		for i := 0; i < fields.NumField(); i++ {
			switch x := fields.Field(i); x.Kind() {
			case reflect.Int:
				if x.Int() < 0 || x.Int() > math.MaxInt32 {
					t.Fatalf("%q: accepted %s = %d", in, fields.Type().Field(i).Name, x.Int())
				}
			case reflect.Float64:
				if !(x.Float() >= 0 && x.Float() <= 1) {
					t.Fatalf("%q: accepted %s = %v", in, fields.Type().Field(i).Name, x.Float())
				}
			}
		}
		if ids := regcast.SpecNodeCount(spec); ids < 0 || ids > math.MaxInt32 {
			t.Fatalf("%q: accepted an id space of %d", in, ids)
		}
	})
}
