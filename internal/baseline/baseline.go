// Package baseline implements the strictly oblivious schedules the paper
// measures its contribution against: the standard push, pull, and
// combined push&pull protocols of the random phone call model (Karp et
// al.), and the one-choice schedules behind experiment E4, the empirical
// companion to the lower bound (Theorem 1): any strictly oblivious
// distributed O(log n)-time Monte Carlo broadcast in the standard
// one-choice phone call model needs Ω(n·log n / log d) transmissions on a
// random d-regular graph.
//
// A strictly oblivious algorithm is, per §2, one whose per-node decisions
// depend only on the current round and the round the node received the
// message. Every schedule here is the time-indexed form (the form all
// classical protocols take): two boolean tables indexed by round — whether
// informed nodes push and whether they pull — and a choice count. The
// phonecall.Protocol interface itself captures the general form. A choice
// count k > 1 turns the push baseline into the k-choice ablation of
// experiment E10 (the paper's §5 open question: are four choices
// necessary?).
package baseline

import (
	"fmt"
	"math"

	"regcast/internal/phonecall"
)

// Schedule is a strictly oblivious protocol given by per-round push/pull
// bits: round t (1-based) pushes iff push[t-1] and pulls iff pull[t-1],
// and every node dials k neighbours. Its horizon is the tables' length;
// outside rounds 1..Horizon it neither pushes nor pulls.
type Schedule struct {
	name       string
	k          int
	push, pull []bool
}

var _ phonecall.Protocol = (*Schedule)(nil)

// NewSchedule validates and returns a one-choice schedule named
// "oblivious/<name>". The two tables must have equal, positive length.
func NewSchedule(name string, pushAt, pullAt []bool) (*Schedule, error) {
	if len(pushAt) == 0 || len(pushAt) != len(pullAt) {
		return nil, fmt.Errorf("baseline: schedule %q tables must be equal length >= 1, got %d/%d",
			name, len(pushAt), len(pullAt))
	}
	return &Schedule{
		name: "oblivious/" + name,
		k:    1,
		push: append([]bool(nil), pushAt...),
		pull: append([]bool(nil), pullAt...),
	}, nil
}

// Name implements phonecall.Protocol.
func (s *Schedule) Name() string { return s.name }

// Choices implements phonecall.Protocol.
func (s *Schedule) Choices() int { return s.k }

// Horizon implements phonecall.Protocol.
func (s *Schedule) Horizon() int { return len(s.push) }

// SendPush implements phonecall.Protocol.
func (s *Schedule) SendPush(t, informedAt int) bool {
	return t >= 1 && t <= len(s.push) && s.push[t-1]
}

// SendPull implements phonecall.Protocol.
func (s *Schedule) SendPull(t, informedAt int) bool {
	return t >= 1 && t <= len(s.pull) && s.pull[t-1]
}

// NewPush builds the classical push schedule for an estimated network
// size: every informed node pushes in every round of the horizon. On
// complete graphs (and random regular graphs) it needs Θ(log n) rounds and
// Θ(n·log n) transmissions. The horizon is ⌈c·log₂ n⌉ with c = 3,
// comfortably above the log₂ n + ln n + O(1) completion time (Frieze &
// Grimmett, Pittel).
func NewPush(nEstimate, k int) (*Schedule, error) {
	if err := checkParams(nEstimate, k); err != nil {
		return nil, err
	}
	h := horizonRounds(nEstimate, 3)
	return &Schedule{name: fmt.Sprintf("push(k=%d)", k), k: k, push: rounds(h, true), pull: rounds(h, false)}, nil
}

// NewPull builds the classical pull schedule: every informed node answers
// all its callers in every round. Once half the graph is informed the
// uninformed count squares down each round, but the opening phase is slow
// because the source must wait to be dialled, so the horizon is
// ⌈4·log₂ n⌉.
func NewPull(nEstimate, k int) (*Schedule, error) {
	if err := checkParams(nEstimate, k); err != nil {
		return nil, err
	}
	h := horizonRounds(nEstimate, 4)
	return &Schedule{name: fmt.Sprintf("pull(k=%d)", k), k: k, push: rounds(h, false), pull: rounds(h, true)}, nil
}

// NewPushPull builds the combined schedule of Karp et al.: every informed
// node both pushes and pulls for a fixed horizon of log₃ n + Θ(log log n)
// rounds, after which the message "dies of old age" — the age-based
// termination that gives O(n·log log n) transmissions on complete graphs.
// The horizon is ⌈log₃ n⌉ + ⌈c·log₂ log₂ n⌉ with c = 2 (the informed set
// saturates after ~log₃ n rounds and the quadratic pull shrinkage finishes
// within O(log log n) more; every extra round costs up to 2n
// transmissions, so the constant must stay small for the O(n·log log n)
// bound to be visible at laptop scales).
func NewPushPull(nEstimate, k int) (*Schedule, error) {
	if err := checkParams(nEstimate, k); err != nil {
		return nil, err
	}
	logN := math.Log2(float64(nEstimate))
	logLogN := math.Log2(logN)
	if logLogN < 1 {
		logLogN = 1
	}
	h := int(math.Ceil(math.Log(float64(nEstimate))/math.Log(3))) + int(math.Ceil(2*logLogN))
	return &Schedule{name: fmt.Sprintf("push-pull(k=%d)", k), k: k, push: rounds(h, true), pull: rounds(h, true)}, nil
}

// AlwaysPush returns the one-choice schedule that pushes in all of the
// given rounds.
func AlwaysPush(horizon int) (*Schedule, error) {
	return NewSchedule("always-push", rounds(horizon, true), rounds(horizon, false))
}

// AlwaysBoth returns the one-choice schedule that pushes and pulls in
// every round.
func AlwaysBoth(horizon int) (*Schedule, error) {
	return NewSchedule("always-push-pull", rounds(horizon, true), rounds(horizon, true))
}

// PushThenPull pushes for the first switchAt rounds and pulls afterwards —
// the shape Karp et al. identified as optimal on complete graphs.
func PushThenPull(switchAt, horizon int) (*Schedule, error) {
	if switchAt < 0 || switchAt > horizon {
		return nil, fmt.Errorf("baseline: switchAt=%d out of [0,%d]", switchAt, horizon)
	}
	push := make([]bool, horizon)
	pull := make([]bool, horizon)
	for i := range push {
		push[i] = i < switchAt
		pull[i] = !push[i]
	}
	return NewSchedule(fmt.Sprintf("push-then-pull@%d", switchAt), push, pull)
}

// Alternating pushes in odd rounds and pulls in even rounds.
func Alternating(horizon int) (*Schedule, error) {
	push := make([]bool, horizon)
	pull := make([]bool, horizon)
	for i := range push {
		push[i] = i%2 == 0
		pull[i] = !push[i]
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

// rounds returns a table of h rounds, each set to on.
func rounds(h int, on bool) []bool {
	t := make([]bool, h)
	for i := range t {
		t[i] = on
	}
	return t
}

func checkParams(nEstimate, k int) error {
	if nEstimate < 2 {
		return fmt.Errorf("baseline: network size estimate %d too small", nEstimate)
	}
	if k < 1 {
		return fmt.Errorf("baseline: choices k=%d must be >= 1", k)
	}
	return nil
}

func horizonRounds(nEstimate int, c float64) int {
	h := int(math.Ceil(c * math.Log2(float64(nEstimate))))
	if h < 4 {
		h = 4
	}
	return h
}
