package regcast_test

import (
	"context"
	"runtime/debug"
	"sync/atomic"
	"testing"
	"time"

	"regcast"
	"regcast/experiments"
	"regcast/internal/baseline"
)

// Each benchmark regenerates one experiment from DESIGN.md's index in the
// Quick profile (the Full profile is cmd/experiments' job). The benchmark
// numbers measure the cost of reproducing the experiment; the scientific
// content is in the emitted tables, printed once under -v via b.Log.
//
// The Quick profile is also the -short contract of this file: experiment
// benches run the same bounded workload with and without -short, so the
// CI benchmark smoke (`go test -short -bench . -benchtime 1x`) can never
// grow a large sweep — the scale sweeps live in scale_bench_test.go and
// skip themselves under -short.
func benchExperiment(b *testing.B, id string) {
	b.Helper()
	e, ok := experiments.ByID(id)
	if !ok {
		b.Fatalf("experiment %s not registered", id)
	}
	for i := 0; i < b.N; i++ {
		tables, err := e.Run(experiments.Options{Seed: uint64(i) + 1, Quick: true})
		if err != nil {
			b.Fatalf("%s: %v", id, err)
		}
		if i == 0 {
			for _, tb := range tables {
				b.Log("\n" + tb.String())
			}
		}
	}
}

// BenchmarkE1Time reproduces E1: Algorithm 1 completion time vs n
// (Theorem 2's O(log n) round bound).
func BenchmarkE1Time(b *testing.B) { benchExperiment(b, "E1") }

// BenchmarkE2Transmissions reproduces E2: O(n·log log n) transmissions vs
// push's Θ(n·log n) (Theorem 2's message bound).
func BenchmarkE2Transmissions(b *testing.B) { benchExperiment(b, "E2") }

// BenchmarkE3LargeDegree reproduces E3: Algorithm 2 on d ≈ log n
// (Theorem 3).
func BenchmarkE3LargeDegree(b *testing.B) { benchExperiment(b, "E3") }

// BenchmarkE4LowerBound reproduces E4: one-choice oblivious schedules vs
// the Ω(n·log n/log d) bound (Theorem 1).
func BenchmarkE4LowerBound(b *testing.B) { benchExperiment(b, "E4") }

// BenchmarkE5Phase1Growth reproduces E5: doubling of the newly informed
// set during Phase 1 (Lemmas 1–2).
func BenchmarkE5Phase1Growth(b *testing.B) { benchExperiment(b, "E5") }

// BenchmarkE6Phase2Decay reproduces E6: constant-factor shrinkage of the
// uninformed set during Phase 2 (Lemma 3 / Corollary 2).
func BenchmarkE6Phase2Decay(b *testing.B) { benchExperiment(b, "E6") }

// BenchmarkE7UnusedEdgeCensus reproduces E7: the unused-edge census bound
// (Lemma 4).
func BenchmarkE7UnusedEdgeCensus(b *testing.B) { benchExperiment(b, "E7") }

// BenchmarkE8ResidualDegrees reproduces E8: h₁/h₄/h₅ structure of the
// uninformed set at the end of Phase 2 (Lemma 8 / Observation 1).
func BenchmarkE8ResidualDegrees(b *testing.B) { benchExperiment(b, "E8") }

// BenchmarkE9ProtocolComparison reproduces E9: the push/pull/push&pull/
// four-choice trajectory figure (§1).
func BenchmarkE9ProtocolComparison(b *testing.B) { benchExperiment(b, "E9") }

// BenchmarkE10ChoiceAblation reproduces E10: k ∈ {1,2,3,4} choices (§5
// open question).
func BenchmarkE10ChoiceAblation(b *testing.B) { benchExperiment(b, "E10") }

// BenchmarkE11Sequentialised reproduces E11: the memory-3 sequentialised
// model (footnote 2).
func BenchmarkE11Sequentialised(b *testing.B) { benchExperiment(b, "E11") }

// BenchmarkE12Failures reproduces E12: channel-failure and message-loss
// sweeps (robustness, abstract).
func BenchmarkE12Failures(b *testing.B) { benchExperiment(b, "E12") }

// BenchmarkE13Robustness reproduces E13: n-estimate error and churn sweeps
// (robustness, abstract).
func BenchmarkE13Robustness(b *testing.B) { benchExperiment(b, "E13") }

// BenchmarkE14GraphModel reproduces E14: configuration-model structure and
// expansion (§1.2 model sanity).
func BenchmarkE14GraphModel(b *testing.B) { benchExperiment(b, "E14") }

// BenchmarkE15ReplicatedDB reproduces E15: replicated-database convergence
// cost (§1 application).
func BenchmarkE15ReplicatedDB(b *testing.B) { benchExperiment(b, "E15") }

// BenchmarkE16ProductK5 reproduces E16: the §5 counterexample (Cartesian
// product with K5), an extension beyond the paper's own evaluation.
func BenchmarkE16ProductK5(b *testing.B) { benchExperiment(b, "E16") }

// BenchmarkE17Quasirandom reproduces E17: quasirandom vs uniform dialing
// (ref [9]), extension.
func BenchmarkE17Quasirandom(b *testing.B) { benchExperiment(b, "E17") }

// BenchmarkE18AntiEntropy reproduces E18: broadcast + anti-entropy
// backstop under loss (Demers architecture), extension.
func BenchmarkE18AntiEntropy(b *testing.B) { benchExperiment(b, "E18") }

// BenchmarkE19PushConstant reproduces E19: the Fountoulakis–Panagiotou
// completion constant C_d (ref [20]), extension.
func BenchmarkE19PushConstant(b *testing.B) { benchExperiment(b, "E19") }

// BenchmarkE20MedianCounter reproduces E20: Karp et al.'s self-terminating
// median-counter push&pull (ref [25]), extension.
func BenchmarkE20MedianCounter(b *testing.B) { benchExperiment(b, "E20") }

// steadyPush is a push-only protocol with a configurable horizon, used to
// hold the engines in their steady-state round loop (everyone informed,
// every round still executing) for the observer-overhead guards.
type steadyPush struct{ horizon int }

func (p steadyPush) Name() string            { return "steady-push" }
func (p steadyPush) Choices() int            { return 1 }
func (p steadyPush) Horizon() int            { return p.horizon }
func (p steadyPush) SendPush(t, ia int) bool { return true }
func (p steadyPush) SendPull(t, ia int) bool { return false }
func (p steadyPush) NeverPulls() bool        { return true }

// TestNilObserverZeroAllocsPerRound guards the facade's core performance
// contract: with no observer registered, the steady-state round loop
// allocates nothing, on the default runner and with WithWorkers(1) alike —
// and neither does the engine's side of a registered observer: a plain
// Observer (for which no clock is read) and a PhaseObserver (three stamps
// and one callback per round) that do not allocate themselves see none.
// Two runs that differ only in horizon must show identical allocation
// counts — any per-round allocation would surface ~hundreds of times over
// the horizon gap. The collector is off while counting (a GC cycle's own
// bookkeeping allocations are counted too, and the longer run's larger
// cohort table would trigger more cycles).
func TestNilObserverZeroAllocsPerRound(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	g, err := regcast.NewRegularGraph(256, 8, regcast.NewRand(6))
	if err != nil {
		t.Fatal(err)
	}
	phases := &phaseCounter{}
	for _, tc := range []struct {
		name     string
		workers  int
		observer regcast.Observer
	}{
		{"sequential", 0, nil},
		{"sharded-inline", 1, nil},
		{"plain-observer", 0, &countingObserver{}},
		{"phase-observer", 0, phases},
	} {
		t.Run(tc.name, func(t *testing.T) {
			allocs := func(horizon int) float64 {
				opts := []regcast.ScenarioOption{regcast.WithSeed(5)}
				if tc.observer != nil {
					opts = append(opts, regcast.WithObserver(tc.observer))
				}
				scenario, err := regcast.NewScenario(regcast.Static(g), steadyPush{horizon}, opts...)
				if err != nil {
					t.Fatal(err)
				}
				runner := regcast.NewRunner(regcast.WithWorkers(tc.workers))
				return testing.AllocsPerRun(5, func() {
					if _, err := runner.Run(context.Background(), scenario); err != nil {
						t.Fatal(err)
					}
				})
			}
			short, long := allocs(80), allocs(400)
			if extra := long - short; extra >= 1 {
				t.Errorf("%s run allocates per round: %.1f extra allocs over 320 extra rounds (%.3f/round)",
					tc.name, extra, extra/320)
			}
		})
	}
	if phases.rounds.Load() == 0 || phases.phases.Load() != phases.rounds.Load() {
		t.Errorf("PhaseObserver saw %d OnRoundPhases for %d OnRound", phases.phases.Load(), phases.rounds.Load())
	}
}

// countingObserver is the cheapest useful observer: two counters.
type countingObserver struct {
	rounds   atomic.Int64
	informed atomic.Int64
}

func (c *countingObserver) OnRound(regcast.RoundStats) { c.rounds.Add(1) }
func (c *countingObserver) OnInformed(int, int)        { c.informed.Add(1) }

// phaseCounter is a countingObserver that also takes the round's phase
// stamps, through the facade's re-export of the interface.
type phaseCounter struct {
	countingObserver
	phases atomic.Int64
}

var _ regcast.PhaseObserver = (*phaseCounter)(nil)

func (p *phaseCounter) OnRoundPhases(int, time.Duration, time.Duration, time.Duration) {
	p.phases.Add(1)
}

// BenchmarkObserverOverhead measures the cost the streaming Observer adds
// to a broadcast, against the nil-observer fast path (which the guard
// above pins at 0 allocs/round).
func BenchmarkObserverOverhead(b *testing.B) {
	const n, d = 4096, 8
	g, err := regcast.NewRegularGraph(n, d, regcast.NewRand(6))
	if err != nil {
		b.Fatal(err)
	}
	push, err := baseline.NewPush(n, 1)
	if err != nil {
		b.Fatal(err)
	}
	for _, withObserver := range []bool{false, true} {
		name := "nil-observer"
		opts := []regcast.ScenarioOption{regcast.WithSeed(3), regcast.WithStopEarly()}
		if withObserver {
			name = "counting-observer"
			opts = append(opts, regcast.WithObserver(&countingObserver{}))
		}
		b.Run(name, func(b *testing.B) {
			scenario, err := regcast.NewScenario(regcast.Static(g), push, opts...)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := regcast.Run(context.Background(), scenario); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
