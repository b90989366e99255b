package phonecall_test

import (
	"fmt"
	"testing"

	"regcast/internal/core"
	"regcast/internal/graph"
	"regcast/internal/phonecall"
	"regcast/internal/xrand"
)

// TestInformedBitsMirrorReceipts pins the informed bitset every
// single-message engine keeps to the receipt rounds it mirrors: after every round's
// receipts, and again after the churn step that follows (a rejoining id is
// reset), bit v is set exactly when informedAt[v] != Uninformed — on a
// frozen CSR view, an implicit view, a partially-alive view and a churning
// overlay whose departed ids rejoin.
func TestInformedBitsMirrorReceipts(t *testing.T) {
	const n, d = 512, 8
	proto, err := core.New(n, d)
	if err != nil {
		t.Fatal(err)
	}
	g := mustRegular(t, n, d, 61)
	stream, err := graph.NewRegularStream(n, d, 62)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		topo   phonecall.Topology
		churns bool
	}{
		{"static", phonecall.NewStatic(g), false},
		{"implicit", phonecall.NewImplicit(stream), false},
		{"partially-alive", phonecall.NewViewTopo(g, 3, 64, 200, 511), false},
		{"churn", buildChurnTopo(t, n, d, churnGolden{joinProb: 0.04, leaveProb: 0.04, mixSteps: 3}, 63), true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var e *phonecall.Engine
			resets := 0
			var before []int32
			check := func(when string) {
				informedAt, bitset := e.LiveInformedAt(), e.LiveInformedBits()
				if len(bitset) != (len(informedAt)+63)/64 {
					t.Fatalf("informed bitset has %d words for %d ids", len(bitset), len(informedAt))
				}
				for v, ia := range informedAt {
					if bit := bitset[v>>6]>>(uint(v)&63)&1 == 1; bit != (ia != phonecall.Uninformed) {
						t.Fatalf("%s: node %d has informedAt %d but informed bit %v", when, v, ia, bit)
					}
				}
			}
			e, err = phonecall.NewEngine(phonecall.Config{
				Topology: tc.topo,
				Protocol: proto,
				Source:   9,
				RNG:      xrand.New(64),
				Observer: roundHooks{func(rm phonecall.RoundMetrics) {
					check(fmt.Sprintf("after round %d's receipts", rm.Round))
				}},
				Halt: func() bool {
					check("after the churn step")
					informedAt := e.LiveInformedAt()
					for v, ia := range before {
						if ia != phonecall.Uninformed && informedAt[v] == phonecall.Uninformed {
							resets++
						}
					}
					before = append(before[:0], informedAt...)
					return false
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			if res := e.Run(); res.Informed < n/2 {
				t.Fatalf("only %d of %d nodes informed; the mirror went unexercised", res.Informed, n)
			}
			if tc.churns && resets == 0 {
				t.Error("no informed id rejoined; the bit clear went unexercised")
			}
		})
	}
}

// TestPullScanBitsetShortcut pins the pull scan's two forms on every view
// under loss and channel failure. When every occupied cohort pulls, a
// single-message engine decides "does the callee answer?" from the
// informed bit alone; when only a window of cohorts pulls it must load the
// callee's receipt round. One schedule of each kind: the topology's own
// view ≡ interfaceView ≡ every Workers value, the first takes the bit
// probe in every round and the second is seen on the receipt-round branch.
func TestPullScanBitsetShortcut(t *testing.T) {
	const n, d = 96, 6
	g := mustRegular(t, n, d, 71)
	for _, tc := range []struct {
		name   string
		window int
	}{
		{"every-cohort-pulls", 0},
		{"window-of-cohorts-pulls", 2},
	} {
		for _, topo := range []phonecall.Topology{phonecall.NewStatic(g), phonecall.NewViewTopo(g, 70, 81, 95)} {
			label := fmt.Sprintf("%s/%T", tc.name, topo)
			proto := windowProto{k: 3, horizon: 24, window: tc.window, push: 0x11111111, pull: ^uint32(0)}
			var first phonecall.Result
			var firstRounds phonecall.RoundLog
			for i, variant := range []struct {
				reference bool
				workers   int
			}{{false, 0}, {false, 1}, {false, 4}, {true, 0}, {true, 1}, {true, 4}} {
				var e *phonecall.Engine
				bitRounds, roundRounds := 0, 0
				var rounds phonecall.RoundLog
				e, err := phonecall.NewEngine(phonecall.Config{
					Topology:           topo,
					Protocol:           proto,
					Source:             5,
					RNG:                xrand.New(72),
					ChannelFailureProb: 0.2,
					MessageLossProb:    0.3,
					DisableFastPath:    variant.reference,
					Workers:            variant.workers,
					Observer: roundHooks{func(rm phonecall.RoundMetrics) {
						rounds.OnRound(rm)
						if e.PullAll() {
							bitRounds++
						} else {
							roundRounds++
						}
					}},
				})
				if err != nil {
					t.Fatal(err)
				}
				res := e.Run()
				switch {
				case tc.window == 0 && roundRounds > 0:
					t.Fatalf("%s reference=%v: %d rounds loaded receipt rounds although every cohort pulls", label, variant.reference, roundRounds)
				case tc.window > 0 && (roundRounds == 0 || bitRounds == 0):
					// Early rounds hold only recent cohorts (bit probe); once an
					// older cohort exists the scan must switch.
					t.Fatalf("%s: %d bit-probe and %d receipt-round rounds; both forms should run", label, bitRounds, roundRounds)
				}
				if i == 0 {
					if res.Transmissions == 0 || res.Informed < n/2 {
						t.Fatalf("%s: %d transmissions, %d informed: the pull scan went unexercised", label, res.Transmissions, res.Informed)
					}
					first, firstRounds = res, rounds
					continue
				}
				variantLabel := fmt.Sprintf("%s reference=%v workers=%d", label, variant.reference, variant.workers)
				sameResult(t, variantLabel, first, res)
				sameRounds(t, variantLabel, firstRounds, rounds)
			}
		}
	}
}
