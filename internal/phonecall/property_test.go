package phonecall

import (
	"testing"
	"testing/quick"

	"regcast/internal/graph"
	"regcast/internal/xrand"
)

// tableProto is a schedule driven by arbitrary boolean tables, used to
// throw randomised schedules at the engine and check its invariants.
type tableProto struct {
	k    int
	push []bool
	pull []bool
}

func (p tableProto) Name() string { return "table" }
func (p tableProto) Choices() int { return p.k }
func (p tableProto) Horizon() int { return len(p.push) }
func (p tableProto) SendPush(t, ia int) bool {
	return t >= 1 && t <= len(p.push) && p.push[t-1]
}
func (p tableProto) SendPull(t, ia int) bool {
	return t >= 1 && t <= len(p.pull) && p.pull[t-1]
}

// TestEngineInvariantsUnderRandomSchedules drives the engine with random
// schedules, choice counts and failure rates, and verifies the structural
// invariants that must hold for ANY protocol:
//
//  1. the source is informed at round 0 and never loses that state;
//  2. InformedAt values are within [0, rounds];
//  3. per-round informed counts are monotone and consistent with receipts;
//  4. a node can only be informed if some round transmitted (tx > 0 or
//     informed == 1);
//  5. transmissions equal the per-round sum.
func TestEngineInvariantsUnderRandomSchedules(t *testing.T) {
	g, err := graph.RandomRegular(96, 6, xrand.New(50))
	if err != nil {
		t.Fatal(err)
	}
	prop := func(seed uint64, pushBits, pullBits uint32, kRaw uint8, failRaw, lossRaw uint8) bool {
		const horizon = 24
		push := make([]bool, horizon)
		pull := make([]bool, horizon)
		for i := 0; i < horizon; i++ {
			push[i] = pushBits>>(i%32)&1 == 1 || i%7 == int(seed%7)
			pull[i] = pullBits>>(i%32)&1 == 1
		}
		k := int(kRaw)%4 + 1
		cfg := Config{
			Topology:           NewStatic(g),
			Protocol:           tableProto{k: k, push: push, pull: pull},
			Source:             int(seed % uint64(g.NumNodes())),
			RNG:                xrand.New(seed),
			ChannelFailureProb: float64(failRaw%50) / 100,
			MessageLossProb:    float64(lossRaw%50) / 100,
		}
		res, rounds, err := RunRounds(cfg)
		if err != nil {
			return false
		}
		// (1) and (2)
		if res.InformedAt[cfg.Source] != 0 {
			return false
		}
		for _, ia := range res.InformedAt {
			if ia != Uninformed && (ia < 0 || int(ia) > res.Rounds) {
				return false
			}
		}
		// (3) and (5)
		var tx int64
		prev := 1
		for _, rm := range rounds {
			if rm.Informed < prev || rm.Informed != prev+rm.NewlyInformed {
				return false
			}
			prev = rm.Informed
			tx += rm.Transmissions
		}
		if tx != res.Transmissions {
			return false
		}
		// (4)
		if res.Informed > 1 && res.Transmissions == 0 {
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

// TestReceiptRoundMatchesTransmittingRound cross-checks that every node's
// InformedAt round actually had transmissions.
func TestReceiptRoundMatchesTransmittingRound(t *testing.T) {
	g, err := graph.RandomRegular(128, 6, xrand.New(51))
	if err != nil {
		t.Fatal(err)
	}
	res, rounds, err := RunRounds(Config{
		Topology: NewStatic(g),
		Protocol: pushProto{2, 40},
		RNG:      xrand.New(52),
	})
	if err != nil {
		t.Fatal(err)
	}
	txAt := map[int]int64{}
	for _, rm := range rounds {
		txAt[rm.Round] = rm.Transmissions
	}
	for v, ia := range res.InformedAt {
		if ia <= 0 {
			continue
		}
		if txAt[int(ia)] == 0 {
			t.Errorf("node %d informed in round %d which had no transmissions", v, ia)
		}
	}
}

// TestNoSpontaneousInformation runs heavy loss and confirms only delivered
// transmissions inform nodes: with ChannelFailureProb 1, nothing spreads.
func TestNoSpontaneousInformation(t *testing.T) {
	g, err := graph.RandomRegular(64, 6, xrand.New(53))
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(Config{
		Topology:           NewStatic(g),
		Protocol:           pushProto{4, 30},
		RNG:                xrand.New(54),
		ChannelFailureProb: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Informed != 1 {
		t.Errorf("informed %d with all channels failed", res.Informed)
	}
	if res.Transmissions != 0 {
		t.Errorf("transmissions %d over failed channels", res.Transmissions)
	}
}

// TestPullCountsOnePerIncomingChannel pins the pull accounting: on a star
// where only the hub is informed and pulls, the number of transmissions in
// a round equals the number of leaves that dialled the hub (all of them:
// leaves have degree 1).
func TestPullCountsOnePerIncomingChannel(t *testing.T) {
	const leaves = 7
	edges := make([][2]int32, leaves)
	for i := 0; i < leaves; i++ {
		edges[i] = [2]int32{0, int32(i + 1)}
	}
	g, err := graph.NewFromEdges(leaves+1, edges)
	if err != nil {
		t.Fatal(err)
	}
	res, rounds, err := RunRounds(Config{
		Topology: NewStatic(g),
		Protocol: pullProto{1, 1},
		Source:   0,
		RNG:      xrand.New(55),
	})
	if err != nil {
		t.Fatal(err)
	}
	// Every leaf dials the hub (its only neighbour); hub answers each.
	if rounds[0].Transmissions != leaves {
		t.Errorf("pull transmissions = %d, want %d", rounds[0].Transmissions, leaves)
	}
	if !res.AllInformed {
		t.Error("single pull round on star should inform every leaf")
	}
}

// TestDeadSourceRejected ensures a dead source fails construction on a
// dynamic topology.
type deadTopology struct{ Static }

func (d deadTopology) Alive(v int) bool { return v != 0 }

func TestDeadSourceRejected(t *testing.T) {
	g, err := graph.RandomRegular(16, 4, xrand.New(56))
	if err != nil {
		t.Fatal(err)
	}
	_, err = NewEngine(Config{
		Topology: deadTopology{NewStatic(g)},
		Protocol: pushProto{1, 5},
		Source:   0,
		RNG:      xrand.New(57),
	})
	if err == nil {
		t.Error("dead source accepted")
	}
}
