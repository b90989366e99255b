package regcast_test

import (
	"context"
	"errors"
	"hash/fnv"
	"math"
	"strings"
	"testing"

	"regcast"
	"regcast/internal/baseline"
	"regcast/internal/core"
)

// hashTrace fingerprints an InformedAt trace for the bit-identity pins.
func hashTrace(informedAt []int32) uint64 {
	h := fnv.New64a()
	var buf [4]byte
	for _, v := range informedAt {
		buf[0] = byte(v)
		buf[1] = byte(v >> 8)
		buf[2] = byte(v >> 16)
		buf[3] = byte(v >> 24)
		h.Write(buf[:])
	}
	return h.Sum64()
}

// goldenGraph is the fixed topology of the determinism pins.
func goldenGraph(t testing.TB) *regcast.Graph {
	t.Helper()
	g, err := regcast.NewRegularGraph(2048, 8, regcast.NewRand(1001))
	if err != nil {
		t.Fatal(err)
	}
	return g
}

type golden struct {
	rounds, firstAll, informed int
	tx, dials                  int64
	hash                       uint64
}

func checkGolden(t *testing.T, name string, res regcast.Result, want golden) {
	t.Helper()
	got := golden{res.Rounds, res.FirstAllInformed, res.Informed,
		res.Transmissions, res.ChannelsDialed, hashTrace(res.InformedAt)}
	if got != want {
		t.Errorf("%s: trace diverged from the pre-facade engine:\ngot  %+v\nwant %+v", name, got, want)
	}
}

// TestFacadeTraceGoldenSequential pins the trace of a facade run on the
// default engine (shard passes inline, DefaultShards streams). The golden
// values were captured by calling phonecall.Run directly; they moved once,
// when the single-stream loop behind Workers == 0 was deleted (PR 15).
func TestFacadeTraceGoldenSequential(t *testing.T) {
	g := goldenGraph(t)
	four, err := core.New(2048, 8)
	if err != nil {
		t.Fatal(err)
	}
	scenario, err := regcast.NewScenario(regcast.Static(g), four, regcast.WithSeed(42))
	if err != nil {
		t.Fatal(err)
	}
	res, err := regcast.Run(context.Background(), scenario)
	if err != nil {
		t.Fatal(err)
	}
	if res.Engine != regcast.EngineSimulator {
		t.Fatalf("default engine = %v, want simulator", res.Engine)
	}
	checkGolden(t, "seq/fourchoice", res, golden{46, 23, 2048, 32720, 376832, 0xfcfefd4eec75bfd1})
}

// TestFacadeTraceGoldenSharded pins the simulator on pooled shard passes:
// the facade always runs DefaultShards streams, so every worker count
// reproduces the inline golden, and the worker choice leaves no mark on
// Result.Engine.
func TestFacadeTraceGoldenSharded(t *testing.T) {
	g := goldenGraph(t)
	four, err := core.New(2048, 8)
	if err != nil {
		t.Fatal(err)
	}
	scenario, err := regcast.NewScenario(regcast.Static(g), four, regcast.WithSeed(42))
	if err != nil {
		t.Fatal(err)
	}
	for workers := 1; workers <= 4; workers++ {
		res, err := regcast.Run(context.Background(), scenario,
			regcast.WithWorkers(workers))
		if err != nil {
			t.Fatal(err)
		}
		if res.Engine != regcast.EngineSimulator {
			t.Fatalf("engine = %v, want simulator", res.Engine)
		}
		checkGolden(t, "pooled/fourchoice", res, golden{46, 23, 2048, 32720, 376832, 0xfcfefd4eec75bfd1})
	}
}

// TestFacadeTraceGoldenQuasirandom pins the quasirandom dial strategy
// through the facade (push-only baseline, early stop).
func TestFacadeTraceGoldenQuasirandom(t *testing.T) {
	g := goldenGraph(t)
	push, err := baseline.NewPush(2048, 1)
	if err != nil {
		t.Fatal(err)
	}
	scenario, err := regcast.NewScenario(regcast.Static(g), push,
		regcast.WithSeed(7),
		regcast.WithDialStrategy(regcast.DialQuasirandom),
		regcast.WithStopEarly())
	if err != nil {
		t.Fatal(err)
	}
	res, err := regcast.Run(context.Background(), scenario)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "seq/push/quasirandom", res, golden{18, 18, 2048, 13175, 36864, 0xa4c0542c74c5a71a})
}

// recordingObserver captures the full callback stream.
type recordingObserver struct {
	rounds     []regcast.RoundStats
	informedAt map[int]int
}

func (r *recordingObserver) OnRound(rs regcast.RoundStats) { r.rounds = append(r.rounds, rs) }
func (r *recordingObserver) OnInformed(node, round int) {
	if r.informedAt == nil {
		r.informedAt = map[int]int{}
	}
	if _, dup := r.informedAt[node]; dup {
		panic("OnInformed fired twice for one node on a static topology")
	}
	r.informedAt[node] = round
}

// TestObserverStreamsResult checks the one per-round channel on both
// engines: OnRound fires exactly Result.Rounds times, for rounds
// 1…Rounds in order — a counted tail and a StopEarly cut included — and
// its stream adds up to the Result's totals, while the OnInformed stream
// equals Result.InformedAt.
func TestObserverStreamsResult(t *testing.T) {
	g, err := regcast.NewRegularGraph(512, 8, regcast.NewRand(3))
	if err != nil {
		t.Fatal(err)
	}
	four, err := core.New(512, 8)
	if err != nil {
		t.Fatal(err)
	}
	small, err := regcast.NewRegularGraph(12, 4, regcast.NewRand(8))
	if err != nil {
		t.Fatal(err)
	}
	pushPull, err := baseline.NewPushPull(12, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		g      *regcast.Graph
		proto  regcast.Protocol
		opts   []regcast.ScenarioOption
		runner []regcast.RunnerOption
	}{
		{"sequential", g, four, nil, nil},
		{"sharded", g, four, nil, []regcast.RunnerOption{regcast.WithWorkers(4)}},
		{"stop-early", g, four, []regcast.ScenarioOption{regcast.WithStopEarly()}, nil},
		{"daemon", small, pushPull, nil, []regcast.RunnerOption{regcast.WithEngine(regcast.EngineDaemonTransport)}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			obs := &recordingObserver{}
			opts := append([]regcast.ScenarioOption{regcast.WithSeed(9), regcast.WithObserver(obs)}, tc.opts...)
			scenario, err := regcast.NewScenario(regcast.Static(tc.g), tc.proto, opts...)
			if err != nil {
				t.Fatal(err)
			}
			res, err := regcast.Run(context.Background(), scenario, tc.runner...)
			if err != nil {
				t.Fatal(err)
			}
			switch {
			case tc.name == "stop-early" && res.Rounds != res.FirstAllInformed:
				t.Fatalf("StopEarly ran %d rounds, all informed after %d", res.Rounds, res.FirstAllInformed)
			case res.Engine == regcast.EngineSimulator && tc.name != "stop-early" && res.CountedRounds == 0:
				t.Fatalf("no counted tail in %d rounds: the case must exercise one", res.Rounds)
			}
			if len(obs.rounds) != res.Rounds {
				t.Fatalf("%d OnRound calls for %d rounds", len(obs.rounds), res.Rounds)
			}
			informed, tx, dials := 1, int64(0), int64(0)
			for i, rs := range obs.rounds {
				if rs.Round != i+1 {
					t.Fatalf("OnRound call %d reports round %d", i+1, rs.Round)
				}
				if rs.Informed != informed+rs.NewlyInformed {
					t.Fatalf("round %d: informed %d != prev %d + new %d", rs.Round, rs.Informed, informed, rs.NewlyInformed)
				}
				informed = rs.Informed
				tx += rs.Transmissions
				dials += rs.ChannelsDial
			}
			if informed != res.Informed || dials != res.ChannelsDialed {
				t.Errorf("stream ends at %d informed over %d dials, result says %d over %d", informed, dials, res.Informed, res.ChannelsDialed)
			}
			// The daemon's total is read after the last tick: equal only when
			// every tick fell silent before its deadline.
			if tx != res.Transmissions && res.TickTimeouts == 0 {
				t.Errorf("stream transmissions sum to %d, result says %d", tx, res.Transmissions)
			}
			if len(obs.informedAt) != res.Informed {
				t.Errorf("OnInformed fired for %d nodes, result says %d informed", len(obs.informedAt), res.Informed)
			}
			for node, round := range obs.informedAt {
				if int(res.InformedAt[node]) != round {
					t.Errorf("OnInformed(%d, %d) disagrees with InformedAt[%d] = %d", node, round, node, res.InformedAt[node])
				}
			}
		})
	}
}

// remembering is a protocol with dial memory 3: the sequentialised model's
// DialMemory extension on any schedule.
type remembering struct{ regcast.Protocol }

func (remembering) Memory() int { return 3 }

// TestScenarioValidation exercises the fail-fast construction errors,
// including the quasirandom/pull incompatibility that used to live only
// in comments.
func TestScenarioValidation(t *testing.T) {
	g, err := regcast.NewRegularGraph(64, 6, regcast.NewRand(1))
	if err != nil {
		t.Fatal(err)
	}
	push, err := baseline.NewPush(64, 1)
	if err != nil {
		t.Fatal(err)
	}
	pushpull, err := baseline.NewPushPull(64, 1)
	if err != nil {
		t.Fatal(err)
	}
	four, err := core.New(64, 6)
	if err != nil {
		t.Fatal(err)
	}
	// Pushes in all 18 rounds and pulls in the last one only.
	pushAt, pullAt := make([]bool, 18), make([]bool, 18)
	for i := range pushAt {
		pushAt[i] = true
	}
	pullAt[17] = true
	lastPull, err := baseline.NewSchedule("last-round-pull", pushAt, pullAt)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name    string
		topo    regcast.Topology
		proto   regcast.Protocol
		opts    []regcast.ScenarioOption
		wantErr string
	}{
		{"nil topology", nil, push, nil, "requires a Topology"},
		{"nil protocol", regcast.Static(g), nil, nil, "requires a Protocol"},
		{"source out of range", regcast.Static(g), push,
			[]regcast.ScenarioOption{regcast.WithSource(64)}, "out of range"},
		{"bad failure prob", regcast.Static(g), push,
			[]regcast.ScenarioOption{regcast.WithChannelFailure(1.5)}, "out of [0,1]"},
		{"bad loss prob", regcast.Static(g), push,
			[]regcast.ScenarioOption{regcast.WithMessageLoss(-0.1)}, "out of [0,1]"},
		{"NaN failure prob", regcast.Static(g), push,
			[]regcast.ScenarioOption{regcast.WithChannelFailure(math.NaN())}, "out of [0,1]"},
		{"NaN loss prob", regcast.Static(g), push,
			[]regcast.ScenarioOption{regcast.WithMessageLoss(math.NaN())}, "out of [0,1]"},
		{"quasirandom with pulling protocol", regcast.Static(g), pushpull,
			[]regcast.ScenarioOption{regcast.WithDialStrategy(regcast.DialQuasirandom)}, "push-only"},
		{"quasirandom with four-choice protocol", regcast.Static(g), four,
			[]regcast.ScenarioOption{regcast.WithDialStrategy(regcast.DialQuasirandom)}, "push-only"},
		{"quasirandom with a pull in the last round only", regcast.Static(g), lastPull,
			[]regcast.ScenarioOption{regcast.WithDialStrategy(regcast.DialQuasirandom)}, "push-only"},
		{"quasirandom with dial memory", regcast.Static(g), remembering{push},
			[]regcast.ScenarioOption{regcast.WithDialStrategy(regcast.DialQuasirandom)}, "incompatible"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := regcast.NewScenario(tc.topo, tc.proto, tc.opts...)
			if err == nil {
				t.Fatal("NewScenario accepted an invalid scenario")
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %q does not mention %q", err, tc.wantErr)
			}
		})
	}

	// The valid quasirandom combination still works.
	if _, err := regcast.NewScenario(regcast.Static(g), push,
		regcast.WithDialStrategy(regcast.DialQuasirandom)); err != nil {
		t.Fatalf("push-only quasirandom scenario rejected: %v", err)
	}
	// Push-only is read off the schedule itself, so an E4 schedule that
	// never pulls qualifies too.
	alwaysPush, err := baseline.AlwaysPush(18)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := regcast.NewScenario(regcast.Static(g), alwaysPush,
		regcast.WithDialStrategy(regcast.DialQuasirandom)); err != nil {
		t.Fatalf("push-only E4 schedule rejected under DialQuasirandom: %v", err)
	}
}

// TestRunCancellation checks that a cancelled context stops a run at a
// round boundary and surfaces ctx.Err().
func TestRunCancellation(t *testing.T) {
	g, err := regcast.NewRegularGraph(512, 8, regcast.NewRand(2))
	if err != nil {
		t.Fatal(err)
	}
	push, err := baseline.NewPush(512, 1)
	if err != nil {
		t.Fatal(err)
	}
	scenario, err := regcast.NewScenario(regcast.Static(g), push, regcast.WithSeed(4))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, opts := range [][]regcast.RunnerOption{
		nil,
		{regcast.WithWorkers(2)},
	} {
		res, err := regcast.Run(ctx, scenario, opts...)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("Run with cancelled ctx returned %v, want context.Canceled", err)
		}
		if res.Rounds >= push.Horizon() {
			t.Fatalf("cancelled run still executed all %d rounds", res.Rounds)
		}
	}
}

// TestRunnerRejectsInvalidCombos checks the engine-compatibility errors.
func TestRunnerRejectsInvalidCombos(t *testing.T) {
	g, err := regcast.NewRegularGraph(64, 4, regcast.NewRand(1))
	if err != nil {
		t.Fatal(err)
	}
	push, err := baseline.NewPush(64, 1)
	if err != nil {
		t.Fatal(err)
	}
	lossy, err := regcast.NewScenario(regcast.Static(g), push, regcast.WithMessageLoss(0.5))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := regcast.Run(context.Background(), lossy,
		regcast.WithEngine(regcast.EngineDaemonTransport)); err == nil {
		t.Error("transport engine accepted simulated message loss")
	}
	memory, err := regcast.NewScenario(regcast.Static(g), remembering{push})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := regcast.Run(context.Background(), memory,
		regcast.WithEngine(regcast.EngineDaemonTransport)); err == nil {
		t.Error("transport engine accepted dial memory")
	}
	census, err := regcast.NewScenario(regcast.Static(g), push, regcast.WithTrackEdgeUse())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := regcast.Run(context.Background(), census); err == nil {
		t.Error("edge census without an Observer to read it accepted")
	}
	if _, err := regcast.Run(context.Background(), regcast.Scenario{}); err == nil {
		t.Error("zero-value Scenario accepted")
	}
}
