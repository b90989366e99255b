package phonecall

import (
	"testing"

	"regcast/internal/xrand"
)

func TestTrackEdgeUseValidation(t *testing.T) {
	g := testGraph(t, 32, 4, 20)
	if _, err := NewEngine(Config{
		Topology: NewStatic(g), Protocol: pushProto{1, 10}, RNG: xrand.New(1),
		TrackEdgeUse: true, // no Observer to read |U(t)|
	}); err == nil {
		t.Error("TrackEdgeUse without an Observer accepted")
	}
}

// censusScan is an Observer that recounts |U(t)| from the per-node
// counters every round — the O(n) scan markUsed's running count replaces.
type censusScan struct {
	t      *testing.T
	e      *Engine
	rounds RoundLog
}

func (c *censusScan) OnInformed(int, int) {}
func (c *censusScan) OnRound(rm RoundMetrics) {
	c.rounds.OnRound(rm)
	scan := 0
	for _, left := range c.e.unusedDeg {
		if left > 0 {
			scan++
		}
	}
	if rm.UnusedEdgeNodes != scan {
		c.t.Fatalf("round %d: running |U(t)| = %d, scan of unusedDeg finds %d", rm.Round, rm.UnusedEdgeNodes, scan)
	}
}

func TestUnusedEdgeCensus(t *testing.T) {
	g := testGraph(t, 128, 6, 21)
	scan := &censusScan{t: t}
	e, err := NewEngine(Config{
		Topology: NewStatic(g), Protocol: pushProto{1, 40}, RNG: xrand.New(2),
		TrackEdgeUse: true, Observer: scan,
	})
	if err != nil {
		t.Fatal(err)
	}
	scan.e = e
	e.Run()
	prev := 128 + 1
	for _, rm := range scan.rounds {
		if rm.UnusedEdgeNodes > prev {
			t.Fatalf("U(t) increased at round %d: %d > %d", rm.Round, rm.UnusedEdgeNodes, prev)
		}
		if rm.UnusedEdgeNodes < 0 || rm.UnusedEdgeNodes > 128 {
			t.Fatalf("U(t) out of range at round %d: %d", rm.Round, rm.UnusedEdgeNodes)
		}
		prev = rm.UnusedEdgeNodes
	}
	first := scan.rounds[0].UnusedEdgeNodes
	if first < 126 {
		t.Errorf("after one push round U(1) = %d, should be nearly n", first)
	}
	last := scan.rounds[len(scan.rounds)-1].UnusedEdgeNodes
	if last >= first {
		t.Errorf("U(t) never decreased: first=%d last=%d", first, last)
	}
}

func TestSilentRunLeavesAllEdgesUnused(t *testing.T) {
	g := testGraph(t, 64, 4, 22)
	_, rounds, err := RunRounds(Config{
		Topology: NewStatic(g), Protocol: silentProto{5}, RNG: xrand.New(3),
		TrackEdgeUse: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, rm := range rounds {
		if rm.UnusedEdgeNodes != 64 {
			t.Fatalf("silent run: U(%d) = %d, want 64", rm.Round, rm.UnusedEdgeNodes)
		}
	}
}

func TestMultiEngineValidation(t *testing.T) {
	g := testGraph(t, 32, 4, 23)
	valid := MultiConfig{
		Topology: NewStatic(g), Protocol: pushProto{1, 10}, RNG: xrand.New(1), Rounds: 5,
		Messages: []Message{{ID: 0, Origin: 0}},
	}
	cases := []struct {
		name   string
		mutate func(*MultiConfig)
	}{
		{"nil topology", func(c *MultiConfig) { c.Topology = nil }},
		{"nil protocol", func(c *MultiConfig) { c.Protocol = nil }},
		{"nil rng", func(c *MultiConfig) { c.RNG = nil }},
		{"zero rounds", func(c *MultiConfig) { c.Rounds = 0 }},
		{"bad origin", func(c *MultiConfig) { c.Messages = []Message{{ID: 0, Origin: 99}} }},
		{"negative creation round", func(c *MultiConfig) { c.Messages = []Message{{ID: 0, CreatedAt: -1}} }},
		// The rows below were accepted before the inner engine went through
		// NewEngine's checks.
		{"bad loss prob", func(c *MultiConfig) { c.MessageLossProb = -0.1 }},
		{"zero choices", func(c *MultiConfig) { c.Protocol = pushProto{0, 10} }},
		{"zero horizon", func(c *MultiConfig) { c.Protocol = pushProto{1, 0} }},
		{"dead origin", func(c *MultiConfig) { c.Topology = newViewTopo(g, 0) }},
		// Run never steps the topology, so churn would be silently frozen.
		{"churning topology", func(c *MultiConfig) { c.Topology = &churnTopo{g: g} }},
	}
	for _, tc := range cases {
		cfg := valid
		tc.mutate(&cfg)
		if _, err := NewMultiEngine(cfg); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
	if _, err := NewMultiEngine(valid); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
	_, err := NewMultiEngine(MultiConfig{
		Topology: newViewTopo(g, 7), Protocol: pushProto{1, 10}, RNG: xrand.New(1), Rounds: 5,
		Messages: []Message{{ID: 3, Origin: 7}},
	})
	if err == nil || err.Error() != "phonecall: message 3 origin 7 is not alive" {
		t.Errorf("dead origin error = %v", err)
	}
}

func TestMultiEngineSingleMessageMatchesSingleEngine(t *testing.T) {
	// A one-message multi run must complete like a single-engine run.
	g := testGraph(t, 128, 6, 24)
	proto := pushProto{1, 40}
	eng, err := NewMultiEngine(MultiConfig{
		Topology: NewStatic(g),
		Protocol: proto,
		Messages: []Message{{ID: 0, Origin: 0, CreatedAt: 0}},
		Rounds:   40,
		RNG:      xrand.New(5),
	})
	if err != nil {
		t.Fatal(err)
	}
	res := eng.Run()
	if len(res.PerMessage) != 1 {
		t.Fatal("missing message result")
	}
	mr := res.PerMessage[0]
	if !mr.AllInformed {
		t.Errorf("message informed %d/128", mr.Informed)
	}
	if mr.Transmissions == 0 {
		t.Error("message counted no transmissions")
	}
	recv := eng.ReceivedAt(0)
	if recv[0] != 0 {
		t.Errorf("origin receipt round = %d, want 0", recv[0])
	}
}

func TestMultiEngineStaggeredCreation(t *testing.T) {
	g := testGraph(t, 128, 6, 25)
	proto := pushProto{2, 30}
	eng, err := NewMultiEngine(MultiConfig{
		Topology: NewStatic(g),
		Protocol: proto,
		Messages: []Message{
			{ID: 0, Origin: 0, CreatedAt: 0},
			{ID: 1, Origin: 64, CreatedAt: 10},
		},
		Rounds: 45,
		RNG:    xrand.New(6),
	})
	if err != nil {
		t.Fatal(err)
	}
	res := eng.Run()
	for _, mr := range res.PerMessage {
		if !mr.AllInformed {
			t.Errorf("message %d informed %d/128", mr.Message.ID, mr.Informed)
		}
	}
	// The late message cannot have finished before it was created.
	if res.PerMessage[1].FirstAllInformed <= 10 {
		t.Errorf("late message finished at round %d", res.PerMessage[1].FirstAllInformed)
	}
	recv := eng.ReceivedAt(1)
	for v, r := range recv {
		if r != Uninformed && r != 10 && int(r) <= 10 && v != 64 {
			t.Errorf("node %d received late message at round %d", v, r)
		}
	}
}

func TestMultiEngineMessageInactiveAfterHorizon(t *testing.T) {
	// With horizon 2 and a sparse start, the message must freeze after age
	// 2: no receipts later than CreatedAt+2.
	g := testGraph(t, 256, 6, 26)
	proto := pushProto{1, 2}
	eng, err := NewMultiEngine(MultiConfig{
		Topology: NewStatic(g),
		Protocol: proto,
		Messages: []Message{{ID: 0, Origin: 0, CreatedAt: 3}},
		Rounds:   20,
		RNG:      xrand.New(7),
	})
	if err != nil {
		t.Fatal(err)
	}
	res := eng.Run()
	if res.PerMessage[0].AllInformed {
		t.Error("horizon-2 push cannot inform 256 nodes")
	}
	for v, r := range eng.ReceivedAt(0) {
		if r != Uninformed && int(r) > 3+2 {
			t.Errorf("node %d received frozen message at round %d", v, r)
		}
	}
}

func TestMultiEngineWithLossAndFailures(t *testing.T) {
	g := testGraph(t, 128, 6, 27)
	eng, err := NewMultiEngine(MultiConfig{
		Topology:        NewStatic(g),
		Protocol:        pushProto{2, 40},
		Messages:        []Message{{ID: 0, Origin: 0, CreatedAt: 0}, {ID: 1, Origin: 5, CreatedAt: 2}},
		Rounds:          45,
		RNG:             xrand.New(8),
		MessageLossProb: 0.2,
	})
	if err != nil {
		t.Fatal(err)
	}
	res := eng.Run()
	for _, mr := range res.PerMessage {
		if !mr.AllInformed {
			t.Errorf("message %d informed %d/128 under moderate loss", mr.Message.ID, mr.Informed)
		}
	}
}

func TestMultiEngineTotalLossSpreadsNothing(t *testing.T) {
	g := testGraph(t, 64, 6, 28)
	eng, err := NewMultiEngine(MultiConfig{
		Topology:        NewStatic(g),
		Protocol:        pushProto{1, 10},
		Messages:        []Message{{ID: 0, Origin: 3, CreatedAt: 0}},
		Rounds:          10,
		RNG:             xrand.New(9),
		MessageLossProb: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	res := eng.Run()
	if res.PerMessage[0].Informed != 1 {
		t.Errorf("informed %d with total loss", res.PerMessage[0].Informed)
	}
	if res.PerMessage[0].Transmissions == 0 {
		t.Error("transmissions should still be counted under loss")
	}
}
