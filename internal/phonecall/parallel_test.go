package phonecall

import (
	"testing"
	"unsafe"

	"regcast/internal/graph"
	"regcast/internal/xrand"
)

// pushPullProto pushes and pulls in every round.
type pushPullProto struct {
	k, horizon int
}

func (p pushPullProto) Name() string            { return "test-pushpull" }
func (p pushPullProto) Choices() int            { return p.k }
func (p pushPullProto) Horizon() int            { return p.horizon }
func (p pushPullProto) SendPush(t, ia int) bool { return true }
func (p pushPullProto) SendPull(t, ia int) bool { return true }

// trace is a run's Result with the OnRound stream its RoundLog saw (nil
// for a run that carried another observer).
type trace struct {
	Result
	rounds RoundLog
}

// runWorkers runs cfg, which carries no Observer, with the given worker
// count and logs its rounds.
func runWorkers(t *testing.T, cfg Config, workers int) trace {
	t.Helper()
	cfg.Workers = workers
	res, rounds, err := RunRounds(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return trace{res, rounds}
}

// assertSameTrace fails unless a and b are bit-identical runs.
func assertSameTrace(t *testing.T, a, b trace) {
	t.Helper()
	if a.Rounds != b.Rounds || a.Transmissions != b.Transmissions ||
		a.ChannelsDialed != b.ChannelsDialed || a.FirstAllInformed != b.FirstAllInformed ||
		a.Informed != b.Informed || a.AllInformed != b.AllInformed {
		t.Fatalf("summaries differ:\n%+v\n%+v", a, b)
	}
	for v := range a.InformedAt {
		if a.InformedAt[v] != b.InformedAt[v] {
			t.Fatalf("InformedAt[%d] = %d vs %d", v, a.InformedAt[v], b.InformedAt[v])
		}
	}
	if len(a.rounds) != len(b.rounds) {
		t.Fatalf("OnRound streams differ in length: %d vs %d", len(a.rounds), len(b.rounds))
	}
	for i := range a.rounds {
		if a.rounds[i] != b.rounds[i] {
			t.Fatalf("OnRound %d differs: %+v vs %+v", i+1, a.rounds[i], b.rounds[i])
		}
	}
}

// TestShardedTraceIndependentOfWorkers is the core determinism contract:
// for a fixed seed and shard count, the engine produces bit-identical
// traces for every worker count — inline (0, 1) and pooled alike — across
// the full feature matrix (push, pull, push&pull, loss, channel failure,
// quasirandom dialing, dial memory, edge-use tracking).
func TestShardedTraceIndependentOfWorkers(t *testing.T) {
	g := testGraph(t, 512, 8, 21)
	cases := []struct {
		name string
		cfg  Config
	}{
		{"push", Config{Protocol: pushProto{2, 60}}},
		{"pull", Config{Protocol: pullProto{1, 80}}},
		{"push-pull", Config{Protocol: pushPullProto{2, 40}}},
		{"lossy", Config{Protocol: pushPullProto{2, 60}, MessageLossProb: 0.3, ChannelFailureProb: 0.2}},
		{"quasirandom", Config{Protocol: pushProto{2, 60}, DialStrategy: DialQuasirandom}},
		{"avoid-recent", Config{Protocol: WithMemory(pushProto{1, 120}, 3)}},
		{"edge-use", Config{Protocol: pushPullProto{2, 40}, TrackEdgeUse: true}},
		{"stop-early", Config{Protocol: pushProto{4, 100}, StopEarly: true}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg
			cfg.Topology = NewStatic(g)
			cfg.Source = 7
			for _, workers := range []int{1, 2, 3, 8} {
				cfg.RNG = xrand.New(1234)
				base := runWorkers(t, cfg, 0)
				cfg.RNG = xrand.New(1234)
				par := runWorkers(t, cfg, workers)
				assertSameTrace(t, base, par)
			}
		})
	}
}

// churnTopo is a static ring whose highest-id node dies after round 3 and
// rejoins (uninformed) after round 6, exercising the Stepper path.
type churnTopo struct {
	g     *graph.Graph
	round int
}

func (c *churnTopo) NumNodes() int         { return c.g.NumNodes() }
func (c *churnTopo) Degree(v int) int      { return c.g.Degree(v) }
func (c *churnTopo) Neighbor(v, i int) int { return c.g.Neighbor(v, i) }
func (c *churnTopo) Alive(v int) bool {
	if v == c.g.NumNodes()-1 {
		return c.round < 3 || c.round >= 6
	}
	return true
}
func (c *churnTopo) Step(round int) []int {
	c.round = round
	if round == 6 {
		return []int{c.g.NumNodes() - 1}
	}
	return nil
}

// TestShardedChurnMatchesAcrossWorkers runs the engine on a churning
// topology and checks worker-count independence there too.
func TestShardedChurnMatchesAcrossWorkers(t *testing.T) {
	g := testGraph(t, 128, 6, 31)
	run := func(workers int) trace {
		return runWorkers(t, Config{
			Topology: &churnTopo{g: g},
			Protocol: pushProto{2, 40},
			Source:   0,
			RNG:      xrand.New(77),
		}, workers)
	}
	assertSameTrace(t, run(0), run(1))
	assertSameTrace(t, run(0), run(8))
}

// TestParShardLayout guards the padding of parShard: its comment promises
// four cache lines per shard, so a field added without shrinking the pad
// would let adjacent shards share a line.
func TestParShardLayout(t *testing.T) {
	if got := unsafe.Sizeof(parShard{}); got != 256 {
		t.Fatalf("parShard is %d bytes, want 256 (four cache lines)", got)
	}
}

// TestEngineSizeClass guards Engine's allocation: NewEngine makes one in
// the 768-byte size class. An object with pointers larger than 512 bytes
// carries an 8-byte malloc header, so past 760 bytes Engine moves to the
// 896-byte class, 128 more bytes a run (stream-push's alloc_mb reads them).
func TestEngineSizeClass(t *testing.T) {
	if got := unsafe.Sizeof(Engine{}); got+8 > 768 {
		t.Fatalf("Engine is %d bytes: with its 8-byte malloc header it is past the 768-byte size class (the next is 896 bytes)", got)
	}
}

// TestShardedEquivalentStatistics checks that sharding does not bias the
// process: one stream for all nodes (shards = 1) against the default 64
// per-shard streams, same graph, same protocol, many seeds. The two
// consume randomness in different orders, so traces differ bit-wise by
// design (worker counts are the bit-identical comparison; see
// TestShardedTraceIndependentOfWorkers) — but their distributions must
// coincide. Over 30 seeds the measured means are 17.97 vs 17.97 rounds
// and 3845.9 vs 3843.8 transmissions (0.05%), so the gates below
// (1 round, 3%) have an order-of-magnitude margin while still catching a
// skewed partition (e.g. correlated shard streams).
func TestShardedEquivalentStatistics(t *testing.T) {
	g := testGraph(t, 512, 8, 51)
	const reps = 30
	stat := func(shards int) (meanRounds, meanTx float64) {
		for seed := uint64(0); seed < reps; seed++ {
			cfg := Config{
				Topology:  NewStatic(g),
				Protocol:  pushProto{1, 200},
				RNG:       xrand.New(1000 + seed),
				StopEarly: true,
				shards:    shards,
			}
			res, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !res.AllInformed {
				t.Fatalf("shards=%d seed=%d: incomplete", shards, seed)
			}
			meanRounds += float64(res.FirstAllInformed)
			meanTx += float64(res.Transmissions)
		}
		return meanRounds / reps, meanTx / reps
	}
	oneRounds, oneTx := stat(1)
	manyRounds, manyTx := stat(DefaultShards)
	if diff := oneRounds - manyRounds; diff > 1 || diff < -1 {
		t.Errorf("mean rounds %.2f at 1 shard vs %.2f at %d differ too much", oneRounds, manyRounds, DefaultShards)
	}
	if ratio := manyTx / oneTx; ratio < 0.97 || ratio > 1.03 {
		t.Errorf("mean tx %.1f at 1 shard vs %.1f at %d differ too much (ratio %.4f)", oneTx, manyTx, DefaultShards, ratio)
	}
}

// TestShardedEdgeUse checks the per-shard edge-use buffers keep the
// census semantics whatever the partition — one shard (every hit merged
// from a single buffer) and the default partition on a pool: U(t) is
// non-increasing and reaches the same final value.
func TestShardedEdgeUse(t *testing.T) {
	g := testGraph(t, 128, 6, 61)
	for _, shards := range []int{1, DefaultShards} {
		cfg := Config{
			Topology:     NewStatic(g),
			Protocol:     pushPullProto{2, 30},
			TrackEdgeUse: true,
			shards:       shards,
		}
		cfg.RNG = xrand.New(9)
		res := runWorkers(t, cfg, 8)
		prev := g.NumNodes() + 1
		for _, rm := range res.rounds {
			if rm.UnusedEdgeNodes > prev {
				t.Fatalf("shards=%d: U(t) increased: %d -> %d at round %d", shards, prev, rm.UnusedEdgeNodes, rm.Round)
			}
			prev = rm.UnusedEdgeNodes
		}
		if prev != 0 {
			t.Errorf("shards=%d: push&pull for 30 rounds left %d nodes with unused edges", shards, prev)
		}
	}
}

// TestWorkersAutoAndValidation covers the new Config surface.
func TestWorkersAutoAndValidation(t *testing.T) {
	g := testGraph(t, 64, 4, 71)
	cfg := Config{Topology: NewStatic(g), Protocol: pushProto{1, 40}, RNG: xrand.New(2), Workers: WorkersAuto}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.AllInformed {
		t.Errorf("WorkersAuto run incomplete: %d/%d", res.Informed, res.AliveNodes)
	}

	cfg.Workers = -2
	if _, err := NewEngine(cfg); err == nil {
		t.Error("Workers=-2 accepted")
	}
	cfg.Workers = 1
	cfg.shards = -1
	if _, err := NewEngine(cfg); err == nil {
		t.Error("shards=-1 accepted")
	}
}

// TestShardedSilentAndBudget mirrors the silent-protocol test on the
// pooled path: no transmissions, but the full dial budget is charged
// (every alive node dials min(k, degree) channels per round).
func TestShardedSilentAndBudget(t *testing.T) {
	g := testGraph(t, 64, 4, 81)
	res, err := Run(Config{
		Topology: NewStatic(g),
		Protocol: silentProto{20},
		RNG:      xrand.New(3),
		Workers:  4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Informed != 1 || res.Transmissions != 0 {
		t.Errorf("silent sharded run: informed=%d tx=%d", res.Informed, res.Transmissions)
	}
	if res.ChannelsDialed != int64(64*1*20) {
		t.Errorf("ChannelsDialed = %d, want %d", res.ChannelsDialed, 64*20)
	}
}
