package phonecall_test

import (
	"fmt"
	"reflect"
	"testing"

	"regcast/internal/baseline"
	"regcast/internal/core"
	"regcast/internal/graph"
	"regcast/internal/phonecall"
	"regcast/internal/xrand"
)

// noStep is a Stepper whose Step changes nothing.
type noStep struct{}

func (noStep) Step(int) []int { return nil }

// mayChange declares that topo might change, which is all it takes to keep
// a run from settling: the engine must simulate every round. That run — same
// topology, same view, same seed — is the oracle a counted
// tail is checked against; there is no switch that forces simulation.
func mayChange(topo phonecall.Topology) phonecall.Topology {
	switch v := topo.(type) {
	case phonecall.CSRViewer:
		return struct {
			phonecall.CSRViewer
			noStep
		}{CSRViewer: v}
	case phonecall.ImplicitViewer:
		return struct {
			phonecall.ImplicitViewer
			noStep
		}{ImplicitViewer: v}
	}
	return struct {
		phonecall.Topology
		noStep
	}{Topology: topo}
}

// eventLog records the full Observer sequence of a run: every round's
// metrics, and every receipt with the number of OnRound calls before it.
type eventLog struct {
	rounds   []phonecall.RoundMetrics
	receipts [][3]int
}

func (l *eventLog) OnRound(rm phonecall.RoundMetrics) { l.rounds = append(l.rounds, rm) }
func (l *eventLog) OnInformed(node, round int) {
	l.receipts = append(l.receipts, [3]int{node, round, len(l.rounds)})
}

// runLogged runs cfg on topo from a fresh seed-9 stream and returns the
// result with everything its observer saw.
func runLogged(t *testing.T, cfg phonecall.Config, topo phonecall.Topology) (phonecall.Result, *eventLog) {
	t.Helper()
	return runSeeded(t, cfg, topo, 9)
}

// runSeeded is runLogged from the given seed.
func runSeeded(t *testing.T, cfg phonecall.Config, topo phonecall.Topology, seed uint64) (phonecall.Result, *eventLog) {
	t.Helper()
	log := &eventLog{}
	cfg.Topology, cfg.RNG, cfg.Observer = topo, xrand.New(seed), log
	res, err := phonecall.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res, log
}

// sameAsOracle runs cfg on topo twice — as it is, and declared changeable so
// that every round is simulated — and fails unless the two Results (every
// field but CountedRounds) and Observer sequences are equal. It returns the
// plain run's Result and OnRound stream.
func sameAsOracle(t *testing.T, label string, cfg phonecall.Config, topo phonecall.Topology) (phonecall.Result, []phonecall.RoundMetrics) {
	t.Helper()
	got, gotLog := runLogged(t, cfg, topo)
	want, wantLog := runLogged(t, cfg, mayChange(topo))
	if want.CountedRounds != 0 {
		t.Fatalf("%s: the oracle counted %d rounds", label, want.CountedRounds)
	}
	sameResult(t, label, want, got)
	if !reflect.DeepEqual(gotLog, wantLog) {
		t.Fatalf("%s: observer sequences differ (%d rounds, %d receipts vs %d, %d)", label,
			len(gotLog.rounds), len(gotLog.receipts), len(wantLog.rounds), len(wantLog.receipts))
	}
	if tail := got.Rounds - got.FirstAllInformed; got.CountedRounds != 0 && (got.FirstAllInformed < 0 || got.CountedRounds < 0 || got.CountedRounds > tail) {
		t.Fatalf("%s: %d counted rounds, all informed after %d of %d", label, got.CountedRounds, got.FirstAllInformed, got.Rounds)
	}
	return got, gotLog.rounds
}

// settleSchedules are the schedules the differential runs: every protocol
// family of the E-tables with the engine options it is run under.
func settleSchedules(t *testing.T, n, d int) []phonecall.Config {
	t.Helper()
	must := func(p phonecall.Protocol, err error) phonecall.Protocol {
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	alg1, err := core.NewAlgorithm1(n)
	if err != nil {
		t.Fatal(err)
	}
	return []phonecall.Config{
		{Protocol: must(baseline.NewPush(n, 1))},
		{Protocol: must(baseline.NewPush(n, 2))},
		{Protocol: must(baseline.NewPull(n, 1))},
		{Protocol: must(baseline.NewPushPull(n, 1))},
		{Protocol: must(core.New(n, max(d, 5)))}, // four-choice wants d >= 5; on G(n,4) it dials every neighbour
		{Protocol: alg1},
		{Protocol: must(core.NewAlgorithm2(n))},
		{Protocol: core.NewSequentialised(alg1)},
		{Protocol: must(baseline.NewPush(n, 1)), DialStrategy: phonecall.DialQuasirandom},
		{Protocol: phonecall.WithMemory(must(baseline.NewPush(n, 1)), 2)},
	}
}

// TestCountedRoundsMatchSimulation is the differential behind "a settled
// run is counted": over schedules × sizes × degrees × message loss × worker
// counts × both views, and on the two implicit families, the run whose tail
// is counted equals the run that simulates every round — Result, per-round
// metrics and the whole Observer sequence.
func TestCountedRoundsMatchSimulation(t *testing.T) {
	var engaged [10]int // by schedule: the runs that settled
	check := func(label string, schedule int, cfg phonecall.Config, topo phonecall.Topology) {
		for _, loss := range []float64{0, 0.2} {
			for _, workers := range []int{0, 4} {
				cfg.MessageLossProb, cfg.Workers = loss, workers
				l := fmt.Sprintf("%s %s dial=%v loss=%v workers=%d reference=%v",
					label, cfg.Protocol.Name(), cfg.DialStrategy, loss, workers, cfg.DisableFastPath)
				if res, _ := sameAsOracle(t, l, cfg, topo); res.CountedRounds > 0 {
					engaged[schedule]++
				}
			}
		}
	}
	sizes := []int{64, 700, 5000}
	if testing.Short() || raceEnabled {
		sizes = sizes[:2] // CI runs the full matrix without the race detector
	}
	for _, n := range sizes {
		for _, d := range []int{4, 8, 16} {
			topo := phonecall.NewStatic(mustRegular(t, n, d, uint64(n+d)))
			for i, cfg := range settleSchedules(t, n, d) {
				for _, reference := range []bool{false, true} {
					cfg.DisableFastPath = reference
					check(fmt.Sprintf("G(%d,%d)", n, d), i, cfg, topo)
				}
			}
		}
	}
	stream, err := graph.NewRegularStream(4096, 8, 5)
	if err != nil {
		t.Fatal(err)
	}
	cube, err := graph.NewImplicitHypercube(10)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range []graph.Implicit{stream, cube} {
		for i, cfg := range settleSchedules(t, f.NumNodes(), f.Degree(0)) {
			check(fmt.Sprintf("implicit(%d,%d)", f.NumNodes(), f.Degree(0)), i, cfg, phonecall.NewImplicit(f))
		}
	}
	// A differential that never left the simulated path would prove nothing.
	for i, runs := range engaged {
		if runs == 0 {
			t.Errorf("schedule %d never settled", i)
		}
	}
	t.Logf("runs that settled, by schedule: %v", engaged)
}

// funcProto is a schedule given as two functions.
type funcProto struct {
	k, horizon int
	push, pull func(t, ia int) bool
}

func (p funcProto) Name() string            { return "func" }
func (p funcProto) Choices() int            { return p.k }
func (p funcProto) Horizon() int            { return p.horizon }
func (p funcProto) SendPush(t, ia int) bool { return p.push(t, ia) }
func (p funcProto) SendPull(t, ia int) bool { return p.pull(t, ia) }

// TestCountedRoundsEngage pins when the count engages and when it must not.
func TestCountedRoundsEngage(t *testing.T) {
	stream, err := graph.NewRegularStream(4096, 8, 5)
	if err != nil {
		t.Fatal(err)
	}
	push, err := baseline.NewPush(4096, 1)
	if err != nil {
		t.Fatal(err)
	}

	t.Run("push tail", func(t *testing.T) {
		res, rounds := sameAsOracle(t, "push", phonecall.Config{Protocol: push}, phonecall.NewImplicit(stream))
		if res.FirstAllInformed < 0 || res.CountedRounds != push.Horizon()-res.FirstAllInformed {
			t.Errorf("counted %d rounds, want horizon %d − completion %d", res.CountedRounds, push.Horizon(), res.FirstAllInformed)
		}
		for _, rm := range rounds[res.FirstAllInformed:] {
			if rm.Transmissions != 4096 || rm.ChannelsDial != 4096 || rm.NewlyInformed != 0 || rm.Informed != 4096 {
				t.Fatalf("counted round reads %+v, want 4096 transmissions on 4096 channels and no receipt", rm)
			}
		}
	})

	t.Run("four-choice pull rounds", func(t *testing.T) {
		const n, d = 4096, 16
		proto, err := core.New(n, d)
		if err != nil {
			t.Fatal(err)
		}
		res, rounds := sameAsOracle(t, "four-choice", phonecall.Config{Protocol: proto}, phonecall.NewStatic(mustRegular(t, n, d, 6)))
		_, t2, pullEnd, horizon := proto.PhaseBoundaries()
		if res.FirstAllInformed < 0 || res.FirstAllInformed > t2 {
			t.Fatalf("all informed after round %d, want before the pull rounds %d–%d (pick another seed)", res.FirstAllInformed, t2+1, pullEnd)
		}
		if res.CountedRounds != horizon-res.FirstAllInformed {
			t.Errorf("counted %d rounds, want every round after %d of %d", res.CountedRounds, res.FirstAllInformed, horizon)
		}
		for r := t2 + 1; r <= pullEnd; r++ {
			if rm := rounds[r-1]; rm.Transmissions != n*4 {
				t.Errorf("pull round %d: %d transmissions, want one answer on each of %d channels", r, rm.Transmissions, n*4)
			}
		}
	})

	t.Run("mixed pull round", func(t *testing.T) {
		// Everyone pushes through round 16 (saturated well before), then
		// silence; in round 20 only the cohorts informed after round 2 pull,
		// which no sum over cohorts can answer: rounds through 20 are
		// simulated. After it: a pull-all round, even rounds push, odd rest.
		const n, k, mixed, horizon = 512, 2, 20, 30
		proto := funcProto{k: k, horizon: horizon,
			push: func(t, ia int) bool { return t <= 16 || (t > mixed && t%2 == 0) },
			pull: func(t, ia int) bool { return (t == mixed && ia > 2) || t == 25 },
		}
		for _, reference := range []bool{false, true} {
			cfg := phonecall.Config{Protocol: proto, DisableFastPath: reference, MessageLossProb: 0.1}
			res, rounds := sameAsOracle(t, "mixed", cfg, phonecall.NewStatic(mustRegular(t, n, 8, 7)))
			if res.FirstAllInformed < 0 || res.FirstAllInformed >= 16 {
				t.Fatalf("all informed after round %d, want before 16", res.FirstAllInformed)
			}
			if res.CountedRounds != horizon-mixed {
				t.Errorf("counted %d rounds, want the %d after the mixed round", res.CountedRounds, horizon-mixed)
			}
			if tx := rounds[mixed-1].Transmissions; tx <= 0 || tx >= n*k {
				t.Errorf("mixed round: %d transmissions, want some but not all of %d channels answered", tx, n*k)
			}
			for r := mixed + 1; r <= horizon; r++ {
				want := int64(0)
				if r%2 == 0 || r == 25 {
					want = n * k
				}
				if tx := rounds[r-1].Transmissions; tx != want {
					t.Errorf("counted round %d: %d transmissions, want %d", r, tx, want)
				}
			}
		}
	})

	t.Run("never", func(t *testing.T) {
		const n, d = 512, 8
		g := mustRegular(t, n, d, 8)
		pushPull, err := baseline.NewPushPull(n, 2)
		if err != nil {
			t.Fatal(err)
		}
		for _, tc := range []struct {
			name string
			topo phonecall.Topology
			cfg  phonecall.Config
		}{
			{"failed channels", phonecall.NewStatic(g), phonecall.Config{ChannelFailureProb: 0.1}},
			{"edge census", phonecall.NewStatic(g), phonecall.Config{TrackEdgeUse: true}},
			{"dead node", phonecall.NewViewTopo(g, 500), phonecall.Config{}},
			{"churn overlay", buildChurnTopo(t, n, d, churnGolden{mixSteps: 2}, 8), phonecall.Config{}},
		} {
			tc.cfg.Protocol = pushPull
			res, _ := runLogged(t, tc.cfg, tc.topo)
			if !res.AllInformed || res.FirstAllInformed >= res.Rounds {
				t.Fatalf("%s: all informed after round %d of %d, want a tail", tc.name, res.FirstAllInformed, res.Rounds)
			}
			if res.CountedRounds != 0 {
				t.Errorf("%s: %d rounds counted, want every round simulated", tc.name, res.CountedRounds)
			}
		}
		m, err := phonecall.NewMultiEngine(phonecall.MultiConfig{
			Topology: phonecall.NewStatic(g), Protocol: pushPull, Rounds: pushPull.Horizon(), RNG: xrand.New(9),
			Messages: []phonecall.Message{{ID: 0, Origin: 1}},
		})
		if err != nil {
			t.Fatal(err)
		}
		if res := m.Run(); !res.PerMessage[0].AllInformed || res.PerMessage[0].FirstAllInformed >= pushPull.Horizon() {
			t.Fatalf("MultiEngine: all informed after round %d of %d, want a tail", res.PerMessage[0].FirstAllInformed, pushPull.Horizon())
		}
		if m.Settled() {
			t.Error("a MultiEngine settled; round is shared, the count is Engine.Run's")
		}
	})
}

// TestCountedRoundsDrawNothing: a counted round draws from no shard stream,
// allocates nothing and — under Workers: 4 — dispatches no pool. Two push
// runs that differ only in a 40-round longer horizon settle after the same
// round, so their difference is 40 counted rounds.
func TestCountedRoundsDrawNothing(t *testing.T) {
	const n, d, short, long = 2048, 8, 30, 70
	var topo phonecall.Topology = phonecall.NewStatic(mustRegular(t, n, d, 10))
	run := func(topo phonecall.Topology, horizon, workers int) (phonecall.Result, []xrand.Rand) {
		e, err := phonecall.NewEngine(phonecall.Config{
			Topology: topo,
			Protocol: funcProto{k: 2, horizon: horizon,
				push: func(int, int) bool { return true }, pull: func(int, int) bool { return false }},
			RNG:             xrand.New(11),
			MessageLossProb: 0.1, // a draw per transmission, were one simulated
			Workers:         workers,
		})
		if err != nil {
			t.Fatal(err)
		}
		return e.Run(), e.StreamStates()
	}
	for _, workers := range []int{0, 4} {
		a, streamsA := run(topo, short, workers)
		b, streamsB := run(topo, long, workers)
		if a.FirstAllInformed < 0 || a.FirstAllInformed >= short || b.FirstAllInformed != a.FirstAllInformed {
			t.Fatalf("workers=%d: all informed after rounds %d and %d, want the same round before %d", workers, a.FirstAllInformed, b.FirstAllInformed, short)
		}
		if a.CountedRounds != short-a.FirstAllInformed || b.CountedRounds != a.CountedRounds+long-short {
			t.Fatalf("workers=%d: counted %d and %d rounds after round %d", workers, a.CountedRounds, b.CountedRounds, a.FirstAllInformed)
		}
		if !reflect.DeepEqual(streamsA, streamsB) {
			t.Errorf("workers=%d: %d more counted rounds moved a shard stream", workers, long-short)
		}
		if raceEnabled {
			continue // instrumentation allocates
		}
		// The horizon sizes the engine's tables, not their number.
		allocs := func(topo phonecall.Topology, horizon int) float64 {
			return testing.AllocsPerRun(5, func() { run(topo, horizon, workers) })
		}
		extra := allocs(topo, long) - allocs(topo, short)
		// A pool dispatch allocates its closure and counters at least.
		if simulated := allocs(mayChange(topo), long) - allocs(mayChange(topo), short); workers > 1 && simulated < long-short {
			t.Errorf("workers=%d: %v allocations in %d simulated rounds; the measure cannot see a pool", workers, simulated, long-short)
		}
		// Goroutine bookkeeping of the simulated rounds' pools is not exact.
		if limit := float64(workers); extra > limit || extra < -limit {
			t.Errorf("workers=%d: %d counted rounds made %v allocations", workers, long-short, extra)
		}
	}
}
