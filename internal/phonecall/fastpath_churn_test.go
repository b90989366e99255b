package phonecall_test

import (
	"testing"

	"regcast/internal/baseline"
	"regcast/internal/core"
	"regcast/internal/p2p/overlay"
	"regcast/internal/phonecall"
	"regcast/internal/xrand"
)

// churnTopo fuses an overlay with its churner, exactly like the facade's
// OverlaySpec topology and experiment E13b: the engine sees one dynamic
// topology that is simultaneously a Stepper and (through the embedded
// overlay) a CSRViewer.
type churnTopo struct {
	*overlay.Overlay
	ch *churnCount
}

func (c churnTopo) Step(round int) []int { return c.ch.Step(round) }

// churnCount steps a churner and counts the joins and leaves it performed,
// from the ids Step returns and the alive count it leaves behind.
type churnCount struct {
	churner       *overlay.Churner
	joins, leaves int
}

func (c *churnCount) Step(round int) []int {
	before := c.churner.Overlay.AliveCount()
	joined := c.churner.Step(round)
	c.joins += len(joined)
	c.leaves += before + len(joined) - c.churner.Overlay.AliveCount()
	return joined
}

var (
	_ phonecall.Stepper   = churnTopo{}
	_ phonecall.CSRViewer = churnTopo{}
)

// churnGolden describes one churn configuration of the golden matrix.
type churnGolden struct {
	name                string
	joinProb, leaveProb float64
	mixSteps            int
	proto               func(t *testing.T, n int) phonecall.Protocol
	mutate              func(cfg *phonecall.Config)
	want                digest
}

// buildChurnTopo constructs a fresh overlay + churner pair from seed.
// Every run gets its own instance (churn mutates the topology), built from
// the same seed so all experience the identical membership trajectory —
// the churner draws only from its own streams.
func buildChurnTopo(t testing.TB, n, d int, g churnGolden, seed uint64) churnTopo {
	t.Helper()
	master := xrand.New(seed)
	ov, err := overlay.New(n, d, n, master.Split())
	if err != nil {
		t.Fatal(err)
	}
	ch, err := overlay.NewChurner(ov, g.joinProb, g.leaveProb, g.mixSteps, master.Split())
	if err != nil {
		t.Fatal(err)
	}
	return churnTopo{ov, &churnCount{churner: ch}}
}

// TestFastPathGoldenChurn extends the golden digests to churning
// topologies: on the overlay (an epoch-stamped CSRViewer) and through
// interfaceView, across join/leave churn, degree-preserving mix-only churn,
// fault models and pull schedules, every view reproduces the committed
// trace whether the shard passes run inline (Workers 0 and 1) or pooled (4).
func TestFastPathGoldenChurn(t *testing.T) {
	const n, d = 192, 8
	alg1 := func(t *testing.T, n int) phonecall.Protocol {
		p, err := core.NewAlgorithm1(n)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	push := func(t *testing.T, n int) phonecall.Protocol {
		p, err := baseline.NewPush(n, 1)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	cases := []churnGolden{
		{
			// E13b's shape: joins and leaves move membership every round,
			// so the alive bitset, the CSR rows and the epoch all churn.
			name: "join-leave", joinProb: 0.03, leaveProb: 0.03, mixSteps: 3,
			proto: alg1,
			want:  digest{34, 3823, 24744, -1, 0x1833ce51916e76d8},
		},
		{
			// Degree-preserving rewiring only: membership is fixed but the
			// adjacency (and hence the epoch) changes every round — the
			// config that catches a stale-CSR bug the join/leave case could
			// mask behind membership refreshes.
			name: "mix-only", joinProb: 0, leaveProb: 0, mixSteps: 25,
			proto: push,
			want:  digest{23, 2808, 4416, 15, 0x96b16cd9ecb0b97b},
		},
		{
			name: "join-leave-channel-failure", joinProb: 0.02, leaveProb: 0.05, mixSteps: 2,
			proto:  alg1,
			mutate: func(cfg *phonecall.Config) { cfg.ChannelFailureProb = 0.2 },
			want:   digest{34, 1590, 17212, -1, 0xfd9f812af6992a1c},
		},
		{
			name: "mix-only-message-loss", joinProb: 0, leaveProb: 0, mixSteps: 10,
			proto:  alg1,
			mutate: func(cfg *phonecall.Config) { cfg.MessageLossProb = 0.15 },
			want:   digest{34, 3093, 26112, 19, 0x2b021ffcfe531994},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for _, view := range goldenViews {
				for _, workers := range []int{0, 1, 4} {
					cfg := phonecall.Config{
						Topology:        buildChurnTopo(t, n, d, tc, 1712),
						Protocol:        tc.proto(t, n),
						Source:          5,
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
						t.Errorf("%s view=%s workers=%d: digest %+v, want %+v", tc.name, view.name, workers, got, tc.want)
					}
				}
			}
		})
	}
}

// TestChurnRunActuallyChurns guards the goldens against vacuity: the
// join/leave configuration must end with a different membership than it
// started with, so the alive bitset and epoch paths really execute.
func TestChurnRunActuallyChurns(t *testing.T) {
	topo := buildChurnTopo(t, 192, 8, churnGolden{joinProb: 0.05, leaveProb: 0.05, mixSteps: 3}, 7)
	proto, err := core.NewAlgorithm1(192)
	if err != nil {
		t.Fatal(err)
	}
	res, err := phonecall.Run(phonecall.Config{
		Topology: topo,
		Protocol: proto,
		RNG:      xrand.New(9),
	})
	if err != nil {
		t.Fatal(err)
	}
	if topo.ch.joins == 0 || topo.ch.leaves == 0 {
		t.Fatalf("churner performed %d joins / %d leaves; the golden matrix would be vacuous", topo.ch.joins, topo.ch.leaves)
	}
	if err := topo.CheckInvariants(); err != nil {
		t.Fatalf("overlay invariants broken after a churn run: %v", err)
	}
	if res.Rounds == 0 {
		t.Fatal("run executed no rounds")
	}
}

// BenchmarkEngineChurnRun is one replication of the repository benchmark's
// churn-ensemble cell: the four-choice broadcast on a 16384 × 8 overlay
// that loses 1 % and gains 1 % of its peers and takes five mix steps after
// every round. Overlay construction is outside the timer.
func BenchmarkEngineChurnRun(b *testing.B) {
	const n, d = 16384, 8
	proto, err := core.New(n, d)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	cell := churnGolden{joinProb: 0.01, leaveProb: 0.01, mixSteps: 5}
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		topo := buildChurnTopo(b, n, d, cell, uint64(i)+1)
		b.StartTimer()
		if _, err := phonecall.Run(phonecall.Config{
			Topology: topo,
			Protocol: proto,
			RNG:      xrand.New(uint64(i) + 1),
		}); err != nil {
			b.Fatal(err)
		}
	}
}
