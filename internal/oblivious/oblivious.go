// Package oblivious provides the machinery behind experiment E4, the
// empirical companion to the paper's lower bound (Theorem 1): any strictly
// oblivious distributed O(log n)-time Monte Carlo broadcast in the
// standard one-choice phone call model needs Ω(n·log n / log d)
// transmissions on a random d-regular graph.
//
// A strictly oblivious algorithm is, per §2, one whose per-node decisions
// depend only on the current round and the round the node received the
// message. Such an algorithm with a fixed horizon H is fully described by
// two boolean tables indexed by round — whether informed nodes push and
// whether they pull — plus, in full generality, a dependence on the
// receipt round. Schedule captures the time-indexed form (the form all
// classical protocols take); the phonecall.Protocol interface itself
// captures the general form.
package oblivious

import (
	"fmt"
	"math"

	"regcast/internal/phonecall"
)

// Schedule is a strictly oblivious one-choice protocol given by per-round
// push/pull bits. Round t (1-based) pushes iff PushAt[t-1] and pulls iff
// PullAt[t-1].
type Schedule struct {
	ScheduleName string
	PushAt       []bool
	PullAt       []bool
}

var _ phonecall.Protocol = (*Schedule)(nil)

// NewSchedule validates and returns a schedule. The two tables must have
// equal, positive length.
func NewSchedule(name string, pushAt, pullAt []bool) (*Schedule, error) {
	if len(pushAt) == 0 || len(pushAt) != len(pullAt) {
		return nil, fmt.Errorf("oblivious: schedule %q tables must be equal length >= 1, got %d/%d",
			name, len(pushAt), len(pullAt))
	}
	return &Schedule{
		ScheduleName: name,
		PushAt:       append([]bool(nil), pushAt...),
		PullAt:       append([]bool(nil), pullAt...),
	}, nil
}

// Name implements phonecall.Protocol.
func (s *Schedule) Name() string { return "oblivious/" + s.ScheduleName }

// Choices implements phonecall.Protocol: the standard model dials one
// neighbour per round.
func (s *Schedule) Choices() int { return 1 }

// Horizon implements phonecall.Protocol.
func (s *Schedule) Horizon() int { return len(s.PushAt) }

// SendPush implements phonecall.Protocol.
func (s *Schedule) SendPush(t, informedAt int) bool {
	return t >= 1 && t <= len(s.PushAt) && s.PushAt[t-1]
}

// SendPull implements phonecall.Protocol.
func (s *Schedule) SendPull(t, informedAt int) bool {
	return t >= 1 && t <= len(s.PullAt) && s.PullAt[t-1]
}

// AlwaysPush returns the schedule that pushes in all of the given rounds.
func AlwaysPush(horizon int) (*Schedule, error) {
	push := make([]bool, horizon)
	for i := range push {
		push[i] = true
	}
	return NewSchedule("always-push", push, make([]bool, horizon))
}

// AlwaysBoth returns the schedule that pushes and pulls in every round.
func AlwaysBoth(horizon int) (*Schedule, error) {
	both := make([]bool, horizon)
	for i := range both {
		both[i] = true
	}
	return NewSchedule("always-push-pull", both, append([]bool(nil), both...))
}

// PushThenPull pushes for the first switchAt rounds and pulls afterwards —
// the shape Karp et al. identified as optimal on complete graphs.
func PushThenPull(switchAt, horizon int) (*Schedule, error) {
	if switchAt < 0 || switchAt > horizon {
		return nil, fmt.Errorf("oblivious: switchAt=%d out of [0,%d]", switchAt, horizon)
	}
	push := make([]bool, horizon)
	pull := make([]bool, horizon)
	for i := range push {
		if i < switchAt {
			push[i] = true
		} else {
			pull[i] = true
		}
	}
	return NewSchedule(fmt.Sprintf("push-then-pull@%d", switchAt), push, pull)
}

// Alternating pushes in odd rounds and pulls in even rounds.
func Alternating(horizon int) (*Schedule, error) {
	push := make([]bool, horizon)
	pull := make([]bool, horizon)
	for i := range push {
		if i%2 == 0 {
			push[i] = true
		} else {
			pull[i] = true
		}
	}
	return NewSchedule("alternating", push, pull)
}

// TransmissionBound returns the Theorem 1 reference curve
// n·log₂(n)/log₂(d): the minimum transmission count (up to a constant) of
// any strictly oblivious O(log n)-time algorithm in the one-choice model.
func TransmissionBound(n, d int) float64 {
	if n < 2 || d < 2 {
		return 0
	}
	return float64(n) * math.Log2(float64(n)) / math.Log2(float64(d))
}
