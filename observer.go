package regcast

import (
	"fmt"
	"time"
)

// ObserverFuncs adapts a plain function to the Observer interface; a nil
// Round is skipped. It is the quickest way to stream metrics from a run:
//
//	regcast.WithObserver(regcast.ObserverFuncs{
//		Round: func(rs regcast.RoundStats) { fmt.Println(rs.Round, rs.Informed) },
//	})
type ObserverFuncs struct {
	// Round is invoked as Observer.OnRound.
	Round func(RoundStats)
}

// OnRound implements Observer.
func (o ObserverFuncs) OnRound(rs RoundStats) {
	if o.Round != nil {
		o.Round(rs)
	}
}

// OnInformed implements Observer; it does nothing.
func (o ObserverFuncs) OnInformed(node, round int) {}

// multiObserver fans callbacks out to several observers in order.
type multiObserver []Observer

func (m multiObserver) OnRound(rs RoundStats) {
	for _, o := range m {
		o.OnRound(rs)
	}
}

func (m multiObserver) OnInformed(node, round int) {
	for _, o := range m {
		o.OnInformed(node, round)
	}
}

// addObserver returns the observer that calls prev's callbacks, then obs's:
// obs alone when prev is nil (no observer keeps the engines' nil-observer
// fast path), else a multiObserver, or a phaseFanout when some observer in
// it is a PhaseObserver.
func addObserver(prev, obs Observer) Observer {
	var m multiObserver
	switch p := prev.(type) {
	case nil:
		return obs
	case multiObserver:
		m = p
	case phaseFanout:
		m = p.multiObserver
	default:
		m = multiObserver{p}
	}
	m = append(m, obs)
	for _, o := range m {
		if _, ok := o.(PhaseObserver); ok {
			return phaseFanout{m}
		}
	}
	return m
}

// phaseFanout is the multiObserver of a run in which some observer is a
// PhaseObserver; without one the simulator must not read its clock.
type phaseFanout struct{ multiObserver }

func (m phaseFanout) OnRoundPhases(t int, tables, passes, merge time.Duration) {
	for _, o := range m.multiObserver {
		if po, ok := o.(PhaseObserver); ok {
			po.OnRoundPhases(t, tables, passes, merge)
		}
	}
}

// PhaseTotals is the -phases observer (CommonFlags.PhaseTotals): it sums the
// simulator's PhaseObserver stamps over a run. A counted round, which reports
// (count, 0, 0), is summed into Counted; every other round into Tables,
// Passes and Merge. It allocates nothing per round.
type PhaseTotals struct {
	ObserverFuncs
	Tables, Passes, Merge, Counted time.Duration
	// Rounds is the number of stamped rounds, CountedRounds those counted.
	Rounds, CountedRounds int
}

// OnRoundPhases implements PhaseObserver.
func (p *PhaseTotals) OnRoundPhases(_ int, tables, passes, merge time.Duration) {
	p.Rounds++
	if passes == 0 && merge == 0 {
		p.Counted += tables
		p.CountedRounds++
		return
	}
	p.Tables += tables
	p.Passes += passes
	p.Merge += merge
}

// String is the one line a command prints after the run.
func (p *PhaseTotals) String() string {
	return fmt.Sprintf("phases: %d rounds: tables %s, passes %s, merge %s, counted %s (%d rounds)",
		p.Rounds, p.Tables, p.Passes, p.Merge, p.Counted, p.CountedRounds)
}
