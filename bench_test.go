package regcast_test

import (
	"context"
	"runtime/debug"
	"sync/atomic"
	"testing"
	"time"

	"regcast"
	"regcast/internal/baseline"
)

// steadyPush is a push-only protocol with a configurable horizon, used to
// hold the engines in their steady-state round loop (everyone informed,
// every round still executing) for the observer-overhead guards.
type steadyPush struct{ horizon int }

func (p steadyPush) Name() string            { return "steady-push" }
func (p steadyPush) Choices() int            { return 1 }
func (p steadyPush) Horizon() int            { return p.horizon }
func (p steadyPush) SendPush(t, ia int) bool { return true }
func (p steadyPush) SendPull(t, ia int) bool { return false }

// TestNilObserverZeroAllocsPerRound guards the facade's core performance
// contract: with no observer registered, the steady-state round loop
// allocates nothing, on the default runner and with WithWorkers(1) alike —
// and neither does the engine's side of a registered observer: a plain
// Observer (for which no clock is read) and a PhaseObserver (three stamps
// and one callback per round; the -phases PhaseTotals is one) that do not
// allocate themselves see none.
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
		{"phases-flag", 0, &regcast.PhaseTotals{}},
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
