package regcast

import (
	"context"
	"testing"
	"time"
)

// phaseTap counts the PhaseObserver callbacks that reach it.
type phaseTap struct {
	ObserverFuncs
	phases int
}

func (p *phaseTap) OnRoundPhases(int, time.Duration, time.Duration, time.Duration) { p.phases++ }

// TestPhaseObserverFanOut: a PhaseObserver registered beside other
// observers still gets every round's stamps, and a scenario whose observers
// are all plain hands the simulator an observer that is not one — so it
// reads no clock for them.
func TestPhaseObserverFanOut(t *testing.T) {
	g, err := NewRegularGraph(128, 6, NewRand(2))
	if err != nil {
		t.Fatal(err)
	}
	proto, err := NewFourChoice(128, 6)
	if err != nil {
		t.Fatal(err)
	}
	rounds := 0
	plain := ObserverFuncs{Round: func(RoundStats) { rounds++ }}
	tap := &phaseTap{}
	for _, tc := range []struct {
		name      string
		observers []Observer
		timed     bool
	}{
		{"none", nil, false},
		{"one-plain", []Observer{plain}, false},
		{"two-plain", []Observer{plain, plain}, false},
		{"one-phase", []Observer{tap}, true},
		{"plain-and-phase", []Observer{plain, tap}, true},
	} {
		opts := []ScenarioOption{WithSeed(4)}
		for _, o := range tc.observers {
			opts = append(opts, WithObserver(o))
		}
		sc, err := NewScenario(Static(g), proto, opts...)
		if err != nil {
			t.Fatal(err)
		}
		if _, timed := sc.cfg.Observer.(PhaseObserver); timed != tc.timed {
			t.Errorf("%s: the run's observer is a PhaseObserver = %v, want %v", tc.name, timed, tc.timed)
		}
		tap.phases = 0
		res, err := Run(context.Background(), sc)
		if err != nil {
			t.Fatal(err)
		}
		if want := map[bool]int{true: res.Rounds}[tc.timed]; tap.phases != want {
			t.Errorf("%s: %d OnRoundPhases over %d rounds, want %d", tc.name, tap.phases, res.Rounds, want)
		}
	}
	if rounds == 0 {
		t.Error("the plain observers saw no round")
	}
}
