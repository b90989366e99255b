package phonecall

import (
	"math"
	"strings"
	"testing"

	"regcast/internal/graph"
	"regcast/internal/xrand"
)

// pushProto is a test protocol: k-choice, push in every round, never pull.
type pushProto struct {
	k, horizon int
}

func (p pushProto) Name() string            { return "test-push" }
func (p pushProto) Choices() int            { return p.k }
func (p pushProto) Horizon() int            { return p.horizon }
func (p pushProto) SendPush(t, ia int) bool { return true }
func (p pushProto) SendPull(t, ia int) bool { return false }

// pullProto pulls in every round and never pushes.
type pullProto struct {
	k, horizon int
}

func (p pullProto) Name() string            { return "test-pull" }
func (p pullProto) Choices() int            { return p.k }
func (p pullProto) Horizon() int            { return p.horizon }
func (p pullProto) SendPush(t, ia int) bool { return false }
func (p pullProto) SendPull(t, ia int) bool { return true }

// silentProto opens channels but never transmits.
type silentProto struct{ horizon int }

func (p silentProto) Name() string            { return "test-silent" }
func (p silentProto) Choices() int            { return 1 }
func (p silentProto) Horizon() int            { return p.horizon }
func (p silentProto) SendPush(t, ia int) bool { return false }
func (p silentProto) SendPull(t, ia int) bool { return false }

func testGraph(t *testing.T, n, d int, seed uint64) *graph.Graph {
	t.Helper()
	g, err := graph.RandomRegular(n, d, xrand.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// hugeTopo claims an id space of 2³¹ and panics on any per-node query:
// newEngine must reject it from NumNodes alone, before the view fetch
// scans Alive.
type hugeTopo struct{}

func (hugeTopo) NumNodes() int         { return 1 << 31 }
func (hugeTopo) Degree(int) int        { panic("hugeTopo: Degree called") }
func (hugeTopo) Neighbor(int, int) int { panic("hugeTopo: Neighbor called") }
func (hugeTopo) Alive(int) bool        { panic("hugeTopo: Alive called") }

func TestConfigValidation(t *testing.T) {
	g := testGraph(t, 20, 4, 1)
	valid := Config{Topology: NewStatic(g), Protocol: pushProto{1, 10}, RNG: xrand.New(1)}

	cases := []struct {
		name   string
		mutate func(*Config)
	}{
		{"nil topology", func(c *Config) { c.Topology = nil }},
		{"nil protocol", func(c *Config) { c.Protocol = nil }},
		{"nil rng", func(c *Config) { c.RNG = nil }},
		{"source negative", func(c *Config) { c.Source = -1 }},
		{"source too large", func(c *Config) { c.Source = 20 }},
		{"bad failure prob", func(c *Config) { c.ChannelFailureProb = 1.5 }},
		{"bad loss prob", func(c *Config) { c.MessageLossProb = -0.1 }},
		{"NaN failure prob", func(c *Config) { c.ChannelFailureProb = math.NaN() }},
		{"NaN loss prob", func(c *Config) { c.MessageLossProb = math.NaN() }},
		{"zero choices", func(c *Config) { c.Protocol = pushProto{0, 10} }},
		{"zero horizon", func(c *Config) { c.Protocol = pushProto{1, 0} }},
		{"id space past int32", func(c *Config) { c.Topology = hugeTopo{} }},
	}
	for _, tc := range cases {
		cfg := valid
		tc.mutate(&cfg)
		if _, err := NewEngine(cfg); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
	if _, err := NewEngine(valid); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
	if _, err := NewMultiEngine(MultiConfig{Topology: hugeTopo{}, Protocol: pushProto{1, 10}, Rounds: 10, RNG: xrand.New(1)}); err == nil {
		t.Error("MultiEngine accepted an id space past int32")
	}
}

// TestModelRules has a row per rule of the model that phonecall owns
// beyond the field checks: each configuration is outside the model, and
// NewEngine rejects it at every Workers value with an error naming the
// rule. The rows without a topology rule fail Config.Validate too, which
// the facade runs when a scenario is assembled.
func TestModelRules(t *testing.T) {
	g := testGraph(t, 64, 6, 3)
	gnp, err := graph.NewGnpStream(400, 8.0/399, 7)
	if err != nil {
		t.Fatal(err)
	}
	twin, err := graph.Materialize(gnp)
	if err != nil {
		t.Fatal(err)
	}
	census := func(topo Topology) func(*Config) {
		return func(c *Config) { c.Topology, c.TrackEdgeUse, c.Observer = topo, true, new(RoundLog) }
	}
	for _, tc := range []struct {
		name     string
		mutate   func(*Config)
		topology bool // a rule about the topology: Validate cannot see it
		want     string
	}{
		{"quasirandom with a pulling protocol", func(c *Config) {
			c.Protocol, c.DialStrategy = pushPullProto{1, 10}, DialQuasirandom
		}, false, "push-only"},
		{"memory with two dials", func(c *Config) { c.Protocol = WithMemory(pushProto{2, 10}, 1) }, false, "dials one"},
		{"memory with four dials", func(c *Config) { c.Protocol = WithMemory(pushProto{4, 10}, 3) }, false, "dials one"},
		{"negative memory", func(c *Config) { c.Protocol = WithMemory(pushProto{1, 10}, -1) }, false, "< 0"},
		{"memory with quasirandom", func(c *Config) {
			c.Protocol, c.DialStrategy = WithMemory(pushProto{1, 10}, 3), DialQuasirandom
		}, false, "incompatible"},
		{"census on an implicit digraph", census(NewImplicit(gnp)), true, "symmetric"},
		{"census on a materialised digraph", census(NewStatic(twin)), true, "symmetric"},
	} {
		for _, workers := range []int{0, 4} {
			cfg := Config{Topology: NewStatic(g), Protocol: pushProto{1, 10}, RNG: xrand.New(1), Workers: workers}
			tc.mutate(&cfg)
			_, err := NewEngine(cfg)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("%s workers=%d: NewEngine error %v, want one naming %q", tc.name, workers, err, tc.want)
			}
			if verr := cfg.Validate(); (verr == nil) != tc.topology {
				t.Errorf("%s workers=%d: Validate error %v", tc.name, workers, verr)
			}
		}
	}
}

func TestPushBroadcastCompletes(t *testing.T) {
	g := testGraph(t, 256, 6, 2)
	res, err := Run(Config{
		Topology: NewStatic(g),
		Protocol: pushProto{1, 100},
		Source:   0,
		RNG:      xrand.New(3),
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.AllInformed {
		t.Fatalf("push did not complete: %d/%d informed", res.Informed, res.AliveNodes)
	}
	if res.FirstAllInformed < 1 || res.FirstAllInformed > 100 {
		t.Errorf("FirstAllInformed = %d", res.FirstAllInformed)
	}
	if res.Transmissions == 0 {
		t.Error("no transmissions recorded")
	}
}

func TestPullBroadcastCompletes(t *testing.T) {
	g := testGraph(t, 256, 6, 4)
	res, err := Run(Config{
		Topology: NewStatic(g),
		Protocol: pullProto{1, 150},
		Source:   5,
		RNG:      xrand.New(5),
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.AllInformed {
		t.Fatalf("pull did not complete: %d/%d informed", res.Informed, res.AliveNodes)
	}
}

func TestSilentProtocolInformsNobody(t *testing.T) {
	g := testGraph(t, 64, 4, 6)
	res, err := Run(Config{
		Topology: NewStatic(g),
		Protocol: silentProto{20},
		Source:   0,
		RNG:      xrand.New(7),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Informed != 1 {
		t.Errorf("silent run informed %d nodes", res.Informed)
	}
	if res.Transmissions != 0 {
		t.Errorf("silent run transmitted %d times", res.Transmissions)
	}
	// Channels are still dialled: the phone call model opens them blindly.
	if res.ChannelsDialed != int64(64*1*20) {
		t.Errorf("ChannelsDialed = %d, want %d", res.ChannelsDialed, 64*20)
	}
}

func TestDeterminismAcrossRuns(t *testing.T) {
	g := testGraph(t, 128, 5, 8)
	run := func() Result {
		res, err := Run(Config{
			Topology: NewStatic(g),
			Protocol: pushProto{2, 50},
			Source:   3,
			RNG:      xrand.New(99),
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.Transmissions != b.Transmissions || a.FirstAllInformed != b.FirstAllInformed {
		t.Errorf("non-deterministic: %+v vs %+v", a, b)
	}
	for v := range a.InformedAt {
		if a.InformedAt[v] != b.InformedAt[v] {
			t.Fatalf("InformedAt[%d] differs", v)
		}
	}
}

func TestStopEarly(t *testing.T) {
	g := testGraph(t, 128, 6, 9)
	full, err := Run(Config{
		Topology: NewStatic(g), Protocol: pushProto{4, 200}, RNG: xrand.New(1),
	})
	if err != nil {
		t.Fatal(err)
	}
	early, err := Run(Config{
		Topology: NewStatic(g), Protocol: pushProto{4, 200}, RNG: xrand.New(1), StopEarly: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if early.Rounds >= full.Rounds {
		t.Errorf("StopEarly did not shorten run: %d vs %d", early.Rounds, full.Rounds)
	}
	if early.Rounds != early.FirstAllInformed {
		t.Errorf("StopEarly stopped at %d but completed at %d", early.Rounds, early.FirstAllInformed)
	}
	if early.Transmissions >= full.Transmissions {
		t.Error("StopEarly should cut transmissions of an always-push schedule")
	}
}

// TestRecordRounds checks the per-round record an Observer receives: one
// entry per round, numbered 1…Rounds, informed counts that add up, and
// transmissions that sum to the run's total.
func TestRecordRounds(t *testing.T) {
	g := testGraph(t, 64, 4, 10)
	res, rounds, err := RunRounds(Config{
		Topology: NewStatic(g), Protocol: pushProto{1, 30}, RNG: xrand.New(2),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rounds) != res.Rounds {
		t.Fatalf("observer saw %d rounds for %d rounds", len(rounds), res.Rounds)
	}
	var tx int64
	prevInformed := 1
	for i, rm := range rounds {
		if rm.Round != i+1 {
			t.Errorf("round numbering broken at %d", i)
		}
		if rm.Informed < prevInformed {
			t.Errorf("informed count decreased at round %d", rm.Round)
		}
		if rm.Informed != prevInformed+rm.NewlyInformed {
			t.Errorf("round %d: informed %d != prev %d + new %d", rm.Round, rm.Informed, prevInformed, rm.NewlyInformed)
		}
		prevInformed = rm.Informed
		tx += rm.Transmissions
	}
	if tx != res.Transmissions {
		t.Errorf("per-round transmissions sum %d != total %d", tx, res.Transmissions)
	}
}

func TestMonotoneInformedAndSourceZero(t *testing.T) {
	g := testGraph(t, 100, 4, 11)
	res, err := Run(Config{
		Topology: NewStatic(g), Protocol: pushProto{4, 60}, Source: 42, RNG: xrand.New(3),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.InformedAt[42] != 0 {
		t.Errorf("source InformedAt = %d, want 0", res.InformedAt[42])
	}
	for v, ia := range res.InformedAt {
		if ia == Uninformed {
			continue
		}
		if ia < 0 || int(ia) > res.Rounds {
			t.Errorf("node %d informedAt %d out of range", v, ia)
		}
	}
}

func TestChannelFailureSlowsBroadcast(t *testing.T) {
	g := testGraph(t, 256, 6, 12)
	const reps = 10
	var cleanRounds, faultyRounds int
	for seed := uint64(0); seed < reps; seed++ {
		clean, err := Run(Config{
			Topology: NewStatic(g), Protocol: pushProto{1, 300}, RNG: xrand.New(seed), StopEarly: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		faulty, err := Run(Config{
			Topology: NewStatic(g), Protocol: pushProto{1, 300}, RNG: xrand.New(seed),
			ChannelFailureProb: 0.5, StopEarly: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		if !clean.AllInformed || !faulty.AllInformed {
			t.Fatal("push with long horizon should complete even at 50% failures")
		}
		cleanRounds += clean.FirstAllInformed
		faultyRounds += faulty.FirstAllInformed
	}
	if faultyRounds <= cleanRounds {
		t.Errorf("failures did not slow broadcast: faulty %d vs clean %d", faultyRounds, cleanRounds)
	}
}

func TestMessageLossCountsTransmissions(t *testing.T) {
	g := testGraph(t, 128, 6, 13)
	// With loss probability 1 nothing is delivered but pushes still count.
	res, err := Run(Config{
		Topology: NewStatic(g), Protocol: pushProto{1, 20}, RNG: xrand.New(4), MessageLossProb: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Informed != 1 {
		t.Errorf("loss=1 informed %d nodes", res.Informed)
	}
	if res.Transmissions != 20 { // source pushes 1 channel × 20 rounds
		t.Errorf("loss=1 transmissions = %d, want 20", res.Transmissions)
	}
}

func TestChoicesCappedByDegree(t *testing.T) {
	// Ring has degree 2 but protocol asks for 4 choices: engine must cap.
	g, err := graph.Ring(16)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(Config{
		Topology: NewStatic(g), Protocol: pushProto{4, 64}, RNG: xrand.New(5),
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.AllInformed {
		t.Error("broadcast on ring did not complete")
	}
	// Dial budget: min(4, 2) = 2 per node per round.
	if res.ChannelsDialed != int64(16*2*res.Rounds) {
		t.Errorf("ChannelsDialed = %d", res.ChannelsDialed)
	}
}

func TestFourChoicesAreDistinct(t *testing.T) {
	// On a star graph seen from the hub, 4 choices out of degree n-1 must be
	// 4 distinct leaves. Push from hub: exactly 4 leaves informed per round.
	const leaves = 10
	edges := make([][2]int32, leaves)
	for i := 0; i < leaves; i++ {
		edges[i] = [2]int32{0, int32(i + 1)}
	}
	g, err := graph.NewFromEdges(leaves+1, edges)
	if err != nil {
		t.Fatal(err)
	}
	_, rounds, err := RunRounds(Config{
		Topology: NewStatic(g), Protocol: pushProto{4, 1}, Source: 0, RNG: xrand.New(6),
	})
	if err != nil {
		t.Fatal(err)
	}
	if rounds[0].NewlyInformed != 4 {
		t.Errorf("hub informed %d leaves in one round, want exactly 4 (distinct choices)", rounds[0].NewlyInformed)
	}
}

func TestSequentialisedMemoryAvoidsRepeats(t *testing.T) {
	// With memory 3 on a degree-4 graph, four consecutive dials from a node
	// are distinct, so a star hub informs all 4 leaves in 4 rounds.
	edges := [][2]int32{{0, 1}, {0, 2}, {0, 3}, {0, 4}}
	g, err := graph.NewFromEdges(5, edges)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(Config{
		Topology: NewStatic(g),
		Protocol: WithMemory(pushProto{1, 4}, 3),
		Source:   0,
		RNG:      xrand.New(7),
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.AllInformed {
		t.Errorf("sequentialised hub informed only %d/5 in 4 rounds", res.Informed)
	}
}

func TestRunWrapperPropagatesError(t *testing.T) {
	if _, err := Run(Config{}); err == nil {
		t.Error("Run with empty config did not error")
	}
}

func TestPushTransmissionCountMatchesSchedule(t *testing.T) {
	// Every informed node pushes over exactly min(k,d) channels per round;
	// on K5 with k=1 and horizon 3, transmissions = sum of informed counts
	// over rounds 1..3 (each informed node sends exactly once per round).
	g, err := graph.Complete(5)
	if err != nil {
		t.Fatal(err)
	}
	res, rounds, err := RunRounds(Config{
		Topology: NewStatic(g), Protocol: pushProto{1, 3}, RNG: xrand.New(8),
	})
	if err != nil {
		t.Fatal(err)
	}
	var want int64
	informed := int64(1)
	for _, rm := range rounds {
		want += informed
		informed = int64(rm.Informed)
	}
	if res.Transmissions != want {
		t.Errorf("transmissions %d, want %d", res.Transmissions, want)
	}
}
