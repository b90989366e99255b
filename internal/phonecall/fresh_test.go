package phonecall_test

import (
	"fmt"
	"reflect"
	"testing"

	"regcast/internal/core"
	"regcast/internal/graph"
	"regcast/internal/phonecall"
	"regcast/internal/xrand"
)

// TestFreshCohortPooledMatchesOracle holds fresh-cohort rounds (a senders
// walk of last round's receipts only, freshWalk) to the general-pass oracle
// at every Workers × Shards pair on four-choice cells whose Phase 1 takes
// them: a dense random regular graph (Algorithm 2), a regular stream
// (Algorithm 1) and a churning overlay (oracle: its interfaceView, whose
// general pass walks every informed id). Every run equals its oracle and
// takes at least one such round.
func TestFreshCohortPooledMatchesOracle(t *testing.T) {
	stream, err := graph.NewRegularStream(3000, 8, 5)
	if err != nil {
		t.Fatal(err)
	}
	dense := phonecall.NewStatic(mustRegular(t, 2000, 16, 41))
	streamFourChoice, err := core.New(3000, 8)
	if err != nil {
		t.Fatal(err)
	}
	denseFourChoice, err := core.New(2000, 16)
	if err != nil {
		t.Fatal(err)
	}
	overlayFourChoice, err := core.New(600, 8)
	if err != nil {
		t.Fatal(err)
	}
	churn := churnGolden{joinProb: 0.03, leaveProb: 0.03, mixSteps: 3}
	fixed := func(topo phonecall.Topology) func() phonecall.Topology {
		return func() phonecall.Topology { return topo }
	}
	for _, tc := range []struct {
		name   string
		topo   func() phonecall.Topology
		proto  phonecall.Protocol
		source int
	}{
		{"dense-fourchoice", fixed(dense), denseFourChoice, 0},
		{"stream-fourchoice", fixed(phonecall.NewImplicit(stream)), streamFourChoice, 0},
		{"churn-fourchoice", func() phonecall.Topology { return buildChurnTopo(t, 600, 8, churn, 17) }, overlayFourChoice, 5},
	} {
		for _, shards := range []int{1, 7, 64} {
			for _, workers := range []int{0, 1, 4} {
				label := fmt.Sprintf("%s shards=%d workers=%d", tc.name, shards, workers)
				cfg := phonecall.Config{Protocol: tc.proto, Source: tc.source, Workers: workers}
				cfg.SetShards(shards)
				if fresh := matchesGeneralPass(t, label, cfg, tc.topo, 11).Fresh; fresh == 0 {
					t.Errorf("%s: no fresh-cohort round", label)
				}
			}
		}
	}
}

// rejoiner is a static graph whose Step(t) reports every other id that
// received the rumour in round t as joined: the id left and came back
// between rounds t and t+1, uninformed, while its bit in the engine's fresh
// bitset, which holds round t's receipts, stays set. It also logs every
// callback, and for each round the shards that walked fresh ids only.
type rejoiner struct {
	phonecall.Static
	eventLog
	eng      *phonecall.Engine
	received [][]int // received[t]: the ids informed in round t
	rejoined []int   // rejoined[t]: how many Step(t) reported
	fresh    []int   // fresh[t]: FreshShards(t)
}

func (r *rejoiner) OnInformed(v, t int) {
	for len(r.received) <= t {
		r.received = append(r.received, nil)
	}
	r.received[t] = append(r.received[t], v)
	r.eventLog.OnInformed(v, t)
}

func (r *rejoiner) OnRound(rm phonecall.RoundMetrics) {
	if r.eng != nil {
		for len(r.fresh) <= rm.Round {
			r.fresh = append(r.fresh, 0)
		}
		r.fresh[rm.Round] = r.eng.FreshShards(rm.Round)
	}
	r.eventLog.OnRound(rm)
}

func (r *rejoiner) Step(t int) (joined []int) {
	if t < len(r.received) {
		for i := 0; i < len(r.received[t]); i += 2 {
			joined = append(joined, r.received[t][i])
		}
	}
	for len(r.rejoined) <= t {
		r.rejoined = append(r.rejoined, 0)
	}
	r.rejoined[t] = len(joined)
	return joined
}

// TestFreshCohortRejoinMatchesOracle: an id that received in round t and
// rejoined before round t+1 keeps its fresh bit, and only the informed
// bits inside the walk's mask keep it from pushing. The run must equal its
// oracle, the same run with fresh rebuilt from the receipt rounds before
// every round (RunRefillingFresh), where no stale bit exists — Result and
// the whole Observer sequence — and some round after such a rejoin must
// walk fresh ids only.
func TestFreshCohortRejoinMatchesOracle(t *testing.T) {
	const n = 2000
	g := mustRegular(t, n, 8, 41)
	fourChoice, err := core.New(n, 8)
	if err != nil {
		t.Fatal(err)
	}
	for _, shards := range []int{1, 7, 64} {
		for _, workers := range []int{0, 4} {
			label := fmt.Sprintf("shards=%d workers=%d", shards, workers)
			cfg := phonecall.Config{Protocol: fourChoice, Workers: workers}
			cfg.SetShards(shards)

			got := &rejoiner{Static: phonecall.NewStatic(g)}
			run := cfg
			run.Topology, run.RNG, run.Observer = got, xrand.New(13), got
			eng, err := phonecall.NewEngine(run)
			if err != nil {
				t.Fatal(err)
			}
			got.eng = eng
			res := eng.Run()

			want := &rejoiner{Static: phonecall.NewStatic(g)}
			oracle := cfg
			oracle.Topology, oracle.RNG, oracle.Observer = want, xrand.New(13), want
			wantRes, _, err := phonecall.RunRefillingFresh(oracle)
			if err != nil {
				t.Fatal(err)
			}
			sameResult(t, label, wantRes, res)
			if !reflect.DeepEqual(got.eventLog, want.eventLog) {
				t.Fatalf("%s: observer sequences differ", label)
			}
			engaged := 0
			for r := 1; r < len(got.fresh) && r < len(got.rejoined); r++ {
				if got.rejoined[r-1] > 0 && got.fresh[r] > 0 {
					engaged++
				}
			}
			if engaged == 0 {
				t.Errorf("%s: no fresh-cohort round followed a rejoin", label)
			}
		}
	}
}

// TestMultiEngineMakesNoFresh: a MultiEngine swaps the informed bitset per
// message and dials every alive id (or reuses the round's rows), so it
// never walks, makes or stores a fresh bitset, on the four-choice schedule
// whose single-message run does.
func TestMultiEngineMakesNoFresh(t *testing.T) {
	const n = 2000
	topo := phonecall.NewStatic(mustRegular(t, n, 16, 41))
	fourChoice, err := core.New(n, 16)
	if err != nil {
		t.Fatal(err)
	}
	multi, err := phonecall.NewMultiEngine(phonecall.MultiConfig{
		Topology: topo, Protocol: fourChoice, Rounds: fourChoice.Horizon() + 4, RNG: xrand.New(3),
		Messages: []phonecall.Message{{ID: 0, Origin: 0}, {ID: 1, Origin: 7, CreatedAt: 2}, {ID: 2, Origin: 99, CreatedAt: 4}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res := multi.Run(); !res.PerMessage[0].AllInformed {
		t.Fatalf("message 0 informed %d of %d", res.PerMessage[0].Informed, n)
	}
	if multi.HasFresh() {
		t.Error("the MultiEngine made a fresh bitset")
	}
	_, counts, err := phonecall.RunCounted(phonecall.Config{Topology: topo, Protocol: fourChoice, RNG: xrand.New(3)})
	if err != nil {
		t.Fatal(err)
	}
	if counts.Fresh == 0 {
		t.Error("the single-message run of the same schedule took no fresh-cohort round")
	}
}
