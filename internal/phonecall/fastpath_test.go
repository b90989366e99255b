// Package phonecall_test holds the cross-package contracts of the engine:
// the CSR fast path pinned bit-identical to the reference interface path
// across the E1–E20 configuration matrix (built from the real protocol
// packages, which the internal test package cannot import), and the
// dial-budget cache exercised on the E13b churn overlay.
package phonecall_test

import (
	"fmt"
	"testing"

	"regcast/internal/baseline"
	"regcast/internal/core"
	"regcast/internal/graph"
	"regcast/internal/oblivious"
	"regcast/internal/phonecall"
	"regcast/internal/xrand"
)

// sameResult fails unless a and b are bit-identical runs.
func sameResult(t *testing.T, label string, a, b phonecall.Result) {
	t.Helper()
	if a.Rounds != b.Rounds || a.Transmissions != b.Transmissions ||
		a.ChannelsDialed != b.ChannelsDialed || a.FirstAllInformed != b.FirstAllInformed ||
		a.Informed != b.Informed || a.AllInformed != b.AllInformed || a.AliveNodes != b.AliveNodes {
		t.Fatalf("%s: summaries differ:\n%+v\n%+v", label, a, b)
	}
	for v := range a.InformedAt {
		if a.InformedAt[v] != b.InformedAt[v] {
			t.Fatalf("%s: InformedAt[%d] = %d vs %d", label, v, a.InformedAt[v], b.InformedAt[v])
		}
	}
	if len(a.PerRound) != len(b.PerRound) {
		t.Fatalf("%s: PerRound lengths differ: %d vs %d", label, len(a.PerRound), len(b.PerRound))
	}
	for i := range a.PerRound {
		if a.PerRound[i] != b.PerRound[i] {
			t.Fatalf("%s: PerRound[%d] differs: %+v vs %+v", label, i, a.PerRound[i], b.PerRound[i])
		}
	}
}

func mustRegular(t testing.TB, n, d int, seed uint64) *graph.Graph {
	t.Helper()
	g, err := graph.RandomRegular(n, d, xrand.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// goldenCase is one configuration of the E1–E20 matrix. The experiments
// field records which experiments the configuration stands in for. E15
// and E18 run on MultiEngine, which drives this engine's round and so
// shares its fast path; multi_test.go pins its fast ≡ reference identity.
// E20 runs on the median-counter state machine, which has no CSR fast
// path and is out of scope here.
type goldenCase struct {
	name        string
	experiments string
	topo        func(t *testing.T) phonecall.Topology
	proto       func(t *testing.T, n int) phonecall.Protocol
	mutate      func(cfg *phonecall.Config)
}

const goldenN = 512

func regularTopo(d int) func(t *testing.T) phonecall.Topology {
	return func(t *testing.T) phonecall.Topology {
		return phonecall.NewStatic(mustRegular(t, goldenN, d, 1701))
	}
}

func goldenCases() []goldenCase {
	fourChoice := func(t *testing.T, n int) phonecall.Protocol {
		p, err := core.New(n, 8)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	push := func(k int) func(t *testing.T, n int) phonecall.Protocol {
		return func(t *testing.T, n int) phonecall.Protocol {
			p, err := baseline.NewPush(n, k)
			if err != nil {
				t.Fatal(err)
			}
			return p
		}
	}
	return []goldenCase{
		{
			name: "four-choice-alg1", experiments: "E1 E2 E5 E6 E9 E13a E19",
			topo: regularTopo(8), proto: fourChoice,
		},
		{
			name: "four-choice-alg2", experiments: "E3",
			topo: regularTopo(8),
			proto: func(t *testing.T, n int) phonecall.Protocol {
				p, err := core.NewAlgorithm2(n)
				if err != nil {
					t.Fatal(err)
				}
				return p
			},
		},
		{
			name: "push-k1-stop-early", experiments: "E2 E9 E19",
			topo: regularTopo(8), proto: push(1),
			mutate: func(cfg *phonecall.Config) { cfg.StopEarly = true },
		},
		{
			name: "pull-k1", experiments: "E9",
			topo: regularTopo(8),
			proto: func(t *testing.T, n int) phonecall.Protocol {
				p, err := baseline.NewPull(n, 1)
				if err != nil {
					t.Fatal(err)
				}
				return p
			},
		},
		{
			name: "push-pull-k1", experiments: "E9 E18",
			topo: regularTopo(8),
			proto: func(t *testing.T, n int) phonecall.Protocol {
				p, err := baseline.NewPushPull(n, 1)
				if err != nil {
					t.Fatal(err)
				}
				return p
			},
		},
		{
			name: "push-k2", experiments: "E10",
			topo: regularTopo(8), proto: push(2),
		},
		{
			name: "push-k3", experiments: "E10",
			topo: regularTopo(8), proto: push(3),
		},
		{
			name: "oblivious-always-both", experiments: "E4",
			topo: regularTopo(8),
			proto: func(t *testing.T, n int) phonecall.Protocol {
				p, err := oblivious.AlwaysBoth(60)
				if err != nil {
					t.Fatal(err)
				}
				return p
			},
		},
		{
			name: "oblivious-push-then-pull", experiments: "E4",
			topo: regularTopo(8),
			proto: func(t *testing.T, n int) phonecall.Protocol {
				p, err := oblivious.PushThenPull(9, 60)
				if err != nil {
					t.Fatal(err)
				}
				return p
			},
		},
		{
			name: "sequentialised-memory3", experiments: "E11",
			topo: regularTopo(8),
			proto: func(t *testing.T, n int) phonecall.Protocol {
				base, err := core.NewAlgorithm1(n)
				if err != nil {
					t.Fatal(err)
				}
				return core.NewSequentialised(base)
			},
			mutate: func(cfg *phonecall.Config) {
				cfg.AvoidRecent = cfg.Protocol.(*core.Sequentialised).Memory()
			},
		},
		{
			name: "four-choice-channel-failure", experiments: "E12",
			topo: regularTopo(8), proto: fourChoice,
			mutate: func(cfg *phonecall.Config) { cfg.ChannelFailureProb = 0.2 },
		},
		{
			name: "four-choice-message-loss", experiments: "E12",
			topo: regularTopo(8), proto: fourChoice,
			mutate: func(cfg *phonecall.Config) { cfg.MessageLossProb = 0.2 },
		},
		{
			name: "push-pull-k2-edge-census", experiments: "E7 E8",
			topo: regularTopo(8),
			proto: func(t *testing.T, n int) phonecall.Protocol {
				p, err := baseline.NewPushPull(n, 2)
				if err != nil {
					t.Fatal(err)
				}
				return p
			},
			mutate: func(cfg *phonecall.Config) { cfg.TrackEdgeUse = true },
		},
		{
			name: "quasirandom-push", experiments: "E17",
			topo: regularTopo(8), proto: push(1),
			mutate: func(cfg *phonecall.Config) { cfg.DialStrategy = phonecall.DialQuasirandom },
		},
		{
			name: "complete-graph-rejection-regime", experiments: "E14 E16",
			topo: func(t *testing.T) phonecall.Topology {
				g, err := graph.Complete(128)
				if err != nil {
					t.Fatal(err)
				}
				return phonecall.NewStatic(g)
			},
			proto: func(t *testing.T, n int) phonecall.Protocol {
				p, err := core.New(128, 127)
				if err != nil {
					t.Fatal(err)
				}
				return p
			},
		},
		{
			name: "ring-degree-cap", experiments: "E16",
			topo: func(t *testing.T) phonecall.Topology {
				g, err := graph.Ring(96)
				if err != nil {
					t.Fatal(err)
				}
				return phonecall.NewStatic(g)
			},
			proto: func(t *testing.T, n int) phonecall.Protocol {
				p, err := baseline.NewPush(96, 4) // k=4 capped by degree 2
				if err != nil {
					t.Fatal(err)
				}
				return p
			},
		},
	}
}

// TestFastPathGoldenE1toE20 pins the tentpole contract: for every
// configuration shape the E1–E20 experiments use — protocols, dial
// strategies, fault models, dial memory, the edge census, degree regimes
// — the CSR fast path produces bit-identical traces to the reference
// interface path, and the shard passes run inline (Workers 0 and 1) or
// pooled (4) produce that same trace: one trace per configuration,
// whatever the path and worker count.
func TestFastPathGoldenE1toE20(t *testing.T) {
	for _, tc := range goldenCases() {
		t.Run(tc.name, func(t *testing.T) {
			topo := tc.topo(t)
			proto := tc.proto(t, topo.NumNodes())
			var inline phonecall.Result // the Workers == 0 fast-path trace
			for _, workers := range []int{0, 1, 4} {
				base := phonecall.Config{
					Topology:     topo,
					Protocol:     proto,
					Source:       3,
					RecordRounds: true,
					Workers:      workers,
				}
				if tc.mutate != nil {
					tc.mutate(&base)
				}
				run := func(disable bool) phonecall.Result {
					cfg := base
					cfg.DisableFastPath = disable
					cfg.RNG = xrand.New(20260726)
					res, err := phonecall.Run(cfg)
					if err != nil {
						t.Fatal(err)
					}
					return res
				}
				label := fmt.Sprintf("%s workers=%d (%s)", tc.name, workers, tc.experiments)
				fast := run(false)
				sameResult(t, label+" fast vs reference", fast, run(true))
				if workers == 0 {
					inline = fast
				}
				sameResult(t, label+" vs workers=0", inline, fast)
			}
		})
	}
}

// dynamicRing is a small churning topology (one node flaps) WITHOUT a
// CSR view; the fast path must not engage on it, and forcing the
// reference path must be a no-op — both runs take the same code path and
// must match trivially. (Churning topologies WITH a CSR view — the
// overlay — engage the fast path and are pinned bit-identical to the
// reference path by TestFastPathGoldenChurn.)
type dynamicRing struct {
	g     *graph.Graph
	round int
}

func (c *dynamicRing) NumNodes() int         { return c.g.NumNodes() }
func (c *dynamicRing) Degree(v int) int      { return c.g.Degree(v) }
func (c *dynamicRing) Neighbor(v, i int) int { return c.g.Neighbor(v, i) }
func (c *dynamicRing) Alive(v int) bool {
	if v == c.g.NumNodes()-1 {
		return c.round < 3 || c.round >= 6
	}
	return true
}
func (c *dynamicRing) Step(round int) []int {
	c.round = round
	if round == 6 {
		return []int{c.g.NumNodes() - 1}
	}
	return nil
}

// TestFastPathDisengagesOnChurn covers viewless dynamic topologies: they
// stay on the reference path and DisableFastPath changes nothing.
func TestFastPathDisengagesOnChurn(t *testing.T) {
	g := mustRegular(t, 128, 6, 31)
	push, err := baseline.NewPush(128, 1)
	if err != nil {
		t.Fatal(err)
	}
	run := func(disable bool) phonecall.Result {
		res, err := phonecall.Run(phonecall.Config{
			Topology:        &dynamicRing{g: g},
			Protocol:        push,
			RNG:             xrand.New(77),
			RecordRounds:    true,
			DisableFastPath: disable,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	sameResult(t, "churn (E13b shape)", run(false), run(true))
}
