package regcast

import "fmt"

// Scheduler selects an engine family: the synchronous phone-call round
// model the paper's broadcast protocols live in, or the
// pairwise-interaction (population-protocol) model. The two families
// share the deterministic sharded super-step substrate (internal/sched)
// and the batch/sweep layers above; they differ in what a step is and
// what a run computes (informed nodes vs a converged configuration).
// Commands expose the choice through the shared -scheduler flag
// (AddCommonFlags).
type Scheduler int

const (
	// SchedulerRounds is the phone-call round model: synchronous rounds,
	// every node dials per the protocol's schedule (Scenario + Runner.Run).
	SchedulerRounds Scheduler = iota
	// SchedulerInteractions is the population-protocol model: uniform
	// random pairwise interactions (or synchronous ring steps) batched into
	// super-steps (PopulationScenario + the same Runner.Run).
	SchedulerInteractions
)

// String implements fmt.Stringer, inverse of ParseScheduler.
func (s Scheduler) String() string {
	switch s {
	case SchedulerRounds:
		return "rounds"
	case SchedulerInteractions:
		return "interactions"
	default:
		return fmt.Sprintf("scheduler(%d)", int(s))
	}
}

// ParseScheduler parses the -scheduler flag values "rounds" and
// "interactions".
func ParseScheduler(s string) (Scheduler, error) {
	switch s {
	case "rounds":
		return SchedulerRounds, nil
	case "interactions":
		return SchedulerInteractions, nil
	default:
		return 0, fmt.Errorf("regcast: unknown scheduler %q (use rounds or interactions)", s)
	}
}
