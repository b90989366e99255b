// Package phonecall_test holds the cross-package contracts of the engine:
// one committed trace digest per configuration of the E1–E20 matrix, which
// every view reproduces (built from the real protocol packages, which the
// internal test package cannot import), and the dial-budget cache exercised
// on the E13b churn overlay.
package phonecall_test

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"testing"

	"regcast/internal/baseline"
	"regcast/internal/core"
	"regcast/internal/graph"
	"regcast/internal/phonecall"
	"regcast/internal/xrand"
)

// sameResult fails unless a and b are bit-identical runs (sameRounds
// compares their OnRound streams).
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
}

// sameRounds fails unless two runs' OnRound streams are equal.
func sameRounds(t *testing.T, label string, a, b phonecall.RoundLog) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: OnRound streams differ in length: %d vs %d", label, len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("%s: OnRound %d differs: %+v vs %+v", label, i+1, a[i], b[i])
		}
	}
}

// digest is a run's committed expectation: its summary counts and an
// FNV-1a-64 hash of InformedAt and the OnRound stream. The goldens below were
// recorded at the commit where the interface-dispatch sampler and shard
// pass bodies still ran beside the view pass and agreed with it, so they
// keep those deleted bodies as the reference.
type digest struct {
	Rounds           int
	Transmissions    int64
	ChannelsDialed   int64
	FirstAllInformed int
	Trace            uint64
}

func digestOf(res phonecall.Result, rounds phonecall.RoundLog) digest {
	h := fnv.New64a()
	var buf [8]byte
	put := func(x int64) {
		binary.LittleEndian.PutUint64(buf[:], uint64(x))
		h.Write(buf[:])
	}
	for _, ia := range res.InformedAt {
		put(int64(ia))
	}
	for _, rm := range rounds {
		for _, x := range [...]int64{int64(rm.Round), int64(rm.NewlyInformed), int64(rm.Informed),
			rm.Transmissions, rm.ChannelsDial, int64(rm.UnusedEdgeNodes)} {
			put(x)
		}
	}
	return digest{res.Rounds, res.Transmissions, res.ChannelsDialed, res.FirstAllInformed, h.Sum64()}
}

// goldenViews are the views every golden configuration runs on: the
// topology's own (CSR for these) and interfaceView over its methods.
var goldenViews = []struct {
	name    string
	disable bool // Config.DisableFastPath
}{{"own", false}, {"interface", true}}

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
// shares its shard pass; multi_test.go pins it to Engine on every view.
// E20 runs on the median-counter state machine, which has no phone-call
// engine and is out of scope here.
type goldenCase struct {
	name        string
	experiments string
	topo        func(t *testing.T) phonecall.Topology
	proto       func(t *testing.T, n int) phonecall.Protocol
	mutate      func(cfg *phonecall.Config)
	want        digest
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
			want: digest{38, 8168, 77824, 19, 0x269ff4f024a65617},
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
			want: digest{22, 10216, 45056, 19, 0x9799c862b77ba0df},
		},
		{
			name: "push-k1-stop-early", experiments: "E2 E9 E19",
			topo: regularTopo(8), proto: push(1),
			mutate: func(cfg *phonecall.Config) { cfg.StopEarly = true },
			want:   digest{17, 3523, 8704, 17, 0xd1153263c9da63cd},
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
			want: digest{36, 13768, 18432, 13, 0x2ad4167df4124ff9},
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
			want: digest{13, 6776, 6656, 10, 0xf1dd0f0c8c92c75},
		},
		{
			name: "push-k2", experiments: "E10",
			topo: regularTopo(8), proto: push(2),
			want: digest{27, 21104, 27648, 11, 0x1e344a421591ebc2},
		},
		{
			name: "push-k3", experiments: "E10",
			topo: regularTopo(8), proto: push(3),
			want: digest{27, 33624, 41472, 7, 0x99e0807eebc82a4c},
		},
		{
			name: "oblivious-always-both", experiments: "E4",
			topo: regularTopo(8),
			proto: func(t *testing.T, n int) phonecall.Protocol {
				p, err := baseline.AlwaysBoth(60)
				if err != nil {
					t.Fatal(err)
				}
				return p
			},
			want: digest{60, 54904, 30720, 10, 0x9e4bc0836f5a8714},
		},
		{
			name: "oblivious-push-then-pull", experiments: "E4",
			topo: regularTopo(8),
			proto: func(t *testing.T, n int) phonecall.Protocol {
				p, err := baseline.PushThenPull(9, 60)
				if err != nil {
					t.Fatal(err)
				}
				return p
			},
			want: digest{60, 25562, 30720, 14, 0x69663711464e6769},
		},
		{
			name: "sequentialised-memory3", experiments: "E11",
			topo: regularTopo(8),
			proto: func(t *testing.T, n int) phonecall.Protocol {
				base, err := core.NewAlgorithm1(n)
				if err != nil {
					t.Fatal(err)
				}
				return core.NewSequentialised(base) // memory 3 (DialMemory)
			},
			want: digest{152, 8184, 77824, 73, 0xba6fa87dcbb9b329},
		},
		{
			name: "four-choice-channel-failure", experiments: "E12",
			topo: regularTopo(8), proto: fourChoice,
			mutate: func(cfg *phonecall.Config) { cfg.ChannelFailureProb = 0.2 },
			want:   digest{38, 6488, 77824, 19, 0x6241c04f7dc88d82},
		},
		{
			name: "four-choice-message-loss", experiments: "E12",
			topo: regularTopo(8), proto: fourChoice,
			mutate: func(cfg *phonecall.Config) { cfg.MessageLossProb = 0.2 },
			want:   digest{38, 8072, 77824, 19, 0x48d59cdcc0f70008},
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
			want:   digest{13, 17020, 13312, 6, 0x6a502540e9d17632},
		},
		{
			name: "quasirandom-push", experiments: "E17",
			topo: regularTopo(8), proto: push(1),
			mutate: func(cfg *phonecall.Config) { cfg.DialStrategy = phonecall.DialQuasirandom },
			want:   digest{27, 8966, 13824, 14, 0xd188d74295eaee4b},
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
			want: digest{18, 2520, 9216, 15, 0xeb41eb80398c1c2f},
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
			want: digest{20, 800, 3840, -1, 0x57a5e4cc84099651},
		},
	}
}

// TestFastPathGoldenE1toE20 pins the view contract against the committed
// digests: for every configuration shape the E1–E20 experiments use —
// protocols, dial strategies, fault models, dial memory, the edge census,
// degree regimes — the topology's own view and interfaceView, with the
// shard passes inline (Workers 0 and 1) or pooled (4), all reproduce the
// one trace the deleted interface-dispatch bodies produced.
func TestFastPathGoldenE1toE20(t *testing.T) {
	for _, tc := range goldenCases() {
		t.Run(tc.name, func(t *testing.T) {
			topo := tc.topo(t)
			proto := tc.proto(t, topo.NumNodes())
			for _, view := range goldenViews {
				for _, workers := range []int{0, 1, 4} {
					cfg := phonecall.Config{
						Topology:        topo,
						Protocol:        proto,
						Source:          3,
						RNG:             xrand.New(20260726),
						Workers:         workers,
						DisableFastPath: view.disable,
					}
					if tc.mutate != nil {
						tc.mutate(&cfg)
					}
					res, rounds, err := phonecall.RunRounds(cfg)
					if err != nil {
						t.Fatal(err)
					}
					if got := digestOf(res, rounds); got != tc.want {
						t.Errorf("%s view=%s workers=%d (%s): digest %+v, want %+v",
							tc.name, view.name, workers, tc.experiments, got, tc.want)
					}
				}
			}
		})
	}
}

// dynamicRing is a small churning topology (one node flaps: dead in rounds
// 3–5, rejoining at Step 6) that exposes no view, so the engine reads it
// through interfaceView.
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

// viewedRing is dynamicRing exposing a CSRView whose alive bitset follows
// the flapping node and whose epoch moves with every Step.
type viewedRing struct{ *dynamicRing }

func (c viewedRing) CSRView() (offsets, adj []int32, alive []uint64, epoch uint64) {
	offsets, adj = c.g.CSR()
	n := c.NumNodes()
	alive = make([]uint64, (n+63)/64)
	for v := 0; v < n; v++ {
		if c.Alive(v) {
			alive[v>>6] |= 1 << (uint(v) & 63)
		}
	}
	return offsets, adj, alive, uint64(c.round)
}

// TestInterfaceViewTracksLiveness pins interfaceView's liveness scan: on a
// viewless Stepper whose node dies and rejoins, the run is bit-identical
// to the same topology read through a CSR view with a moving epoch, inline
// and pooled.
func TestInterfaceViewTracksLiveness(t *testing.T) {
	g := mustRegular(t, 128, 6, 31)
	pushPull, err := baseline.NewPushPull(128, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{0, 4} {
		run := func(topo phonecall.Topology, view string) (phonecall.Result, phonecall.RoundLog) {
			var log phonecall.RoundLog
			e, err := phonecall.NewEngine(phonecall.Config{
				Topology: topo,
				Protocol: pushPull,
				RNG:      xrand.New(77),
				Workers:  workers,
				Observer: &log,
			})
			if err != nil {
				t.Fatal(err)
			}
			if got := e.View(); got != view {
				t.Fatalf("%T: view %q, want %q", topo, got, view)
			}
			res := e.Run()
			return res, log
		}
		viewless, viewlessRounds := run(&dynamicRing{g: g}, "interface")
		if viewlessRounds[3].ChannelsDial == viewlessRounds[0].ChannelsDial {
			t.Fatal("the flapping node's death did not reach the dial budget")
		}
		label := fmt.Sprintf("churn (E13b shape) workers=%d", workers)
		viewed, viewedRounds := run(viewedRing{&dynamicRing{g: g}}, "csr")
		sameResult(t, label, viewed, viewless)
		sameRounds(t, label, viewedRounds, viewlessRounds)
	}
}
