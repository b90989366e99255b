package phonecall_test

import (
	"testing"

	"regcast/internal/core"
	"regcast/internal/phonecall"
	"regcast/internal/xrand"
)

// roundHooks adapts an OnRound closure to phonecall.Observer.
type roundHooks struct{ onRound func(phonecall.RoundMetrics) }

func (h roundHooks) OnRound(rm phonecall.RoundMetrics) { h.onRound(rm) }
func (h roundHooks) OnInformed(int, int)               {}

// TestShardCohortCounts pins the bookkeeping behind the driver's shard
// skip on a four-choice run, frozen and churning. After every round (and
// the churn step that follows it) each shard's cohort[r] must equal the
// number of its ids whose receipt round is r — departed ids included,
// which is what makes it an upper bound on the shard's alive cohort — and
// whenever the driver skipped a shard (a round with no pull, the shard's
// sends flag false) the shard must really have held no alive sender.
// Phase 1 (only last round's receivers push) and phase 4 (only phase-3
// receivers push) are the sender-sparse rounds; both must skip. The frozen
// graph is declared changeable (mayChange): left to settle, its phase 4 —
// after the last receipt — would be counted, with no pass to skip.
func TestShardCohortCounts(t *testing.T) {
	const n, d = 512, 8
	proto, err := core.New(n, d)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		topo   phonecall.Topology
		churns bool
	}{
		{"static", mayChange(phonecall.NewStatic(mustRegular(t, n, d, 33))), false},
		{"churn", buildChurnTopo(t, n, d, churnGolden{joinProb: 0.03, leaveProb: 0.03, mixSteps: 3}, 34), true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var e *phonecall.Engine
			round := 0
			skips := map[int]int{} // by phase
			resets := 0            // informed ids that rejoined and left their cohort
			var before []int32     // receipt rounds as of the previous round's end
			obs := roundHooks{func(rm phonecall.RoundMetrics) {
				// Called after round rm.Round's passes and receipts, before
				// the churn step: liveness is still what the passes saw.
				round = rm.Round
				phase := proto.Phase(round)
				if phase == 3 {
					return // pull rounds dial everywhere; nothing is skipped
				}
				informedAt := e.LiveInformedAt()
				for i, sh := range e.ShardStates() {
					if sh.Sends {
						continue
					}
					skips[phase]++
					for v := sh.Lo; v < sh.Hi; v++ {
						ia := int(informedAt[v])
						if tc.topo.Alive(v) && ia >= 0 && ia < round && proto.SendPush(round, ia) {
							t.Fatalf("round %d: skipped shard %d holds sender %d (informed at %d)", round, i, v, ia)
						}
					}
				}
			}}
			halt := func() bool {
				informedAt := e.LiveInformedAt()
				for v, ia := range before {
					if ia != phonecall.Uninformed && informedAt[v] == phonecall.Uninformed {
						resets++
					}
				}
				before = append(before[:0], informedAt...)
				for i, sh := range e.ShardStates() {
					members := make([]int32, round+1)
					for v := sh.Lo; v < sh.Hi; v++ {
						if ia := informedAt[v]; ia != phonecall.Uninformed {
							members[ia]++
						}
					}
					for r, want := range members {
						if sh.Cohort[r] != want {
							t.Fatalf("after round %d: shard %d cohort[%d] = %d, want %d", round, i, r, sh.Cohort[r], want)
						}
					}
				}
				return false
			}
			e, err = phonecall.NewEngine(phonecall.Config{
				Topology: tc.topo,
				Protocol: proto,
				Source:   9,
				RNG:      xrand.New(35),
				Observer: obs,
				Halt:     halt,
			})
			if err != nil {
				t.Fatal(err)
			}
			res := e.Run()
			if res.Rounds != proto.Horizon() {
				t.Fatalf("ran %d rounds, want the full horizon %d", res.Rounds, proto.Horizon())
			}
			if skips[1] == 0 || skips[4] == 0 {
				t.Errorf("shard passes skipped by phase: %v; phases 1 and 4 should both skip", skips)
			}
			if tc.churns && resets == 0 {
				t.Error("no informed id rejoined; the cohort decrement went unexercised")
			}
		})
	}
}
