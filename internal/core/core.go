// Package core implements the paper's contribution: the four-choice phased
// broadcast protocols of Berenbrink, Elsässer & Friedetzky (Algorithms 1
// and 2), which broadcast on random d-regular graphs in O(log n) rounds
// with only O(n·log log n) message transmissions, plus the sequentialised
// one-choice variant of footnote 2.
//
// Both algorithms are strictly address-oblivious: every decision is a pure
// function of the current round t and the round informedAt at which the
// deciding node first received the message. The phase boundaries are fixed
// in advance from an estimate of n (the paper only requires the estimate to
// be accurate to within a constant factor; experiment E13 measures that
// robustness).
//
// Phase structure (log = log₂ throughout; α sizes Phases 1/4, β sizes
// Phases 2/3 — the paper uses one "sufficiently large" α for all phases,
// see DefaultBeta for why the library splits them):
//
//	Phase 1   rounds 1 .. T1 = ⌈α·log n⌉:
//	          a node pushes iff it was informed in the previous round
//	          (the source counts as informed in round 0).
//	Phase 2   rounds T1+1 .. T2 = T1 + L, L = max(1, ⌈β·log log n⌉):
//	          every informed node pushes.
//	Phase 3   Algorithm 1: the single round T2+1; every informed node pulls
//	          (answers all nodes that dialled it).
//	          Algorithm 2: rounds T2+1 .. T1 + 2·L; every informed node
//	          pulls. The schedule ends here.
//	Phase 4   Algorithm 1 only: rounds T2+2 .. 2·T1 + L; nodes informed
//	          during Phase 3 or 4 are "active" and push every round.
//	          Activity is itself a function of (t, informedAt):
//	          active(t) ⇔ informedAt ≥ T2+1 and informedAt < t.
package core

import (
	"fmt"
	"math"

	"regcast/internal/phonecall"
)

// DefaultAlpha is the Phase 1 / Phase 4 length constant used when the
// caller does not override it. The paper only requires α to be a
// sufficiently large constant; α = 2 completes reliably for every n, d
// exercised in EXPERIMENTS.md. Phase 1 and Phase 4 rounds are almost free
// (only newly informed / active nodes transmit), so a generous α here
// costs time headroom, not messages.
const DefaultAlpha = 2.0

// DefaultBeta is the Phase 2 / Phase 3 length constant: those phases run
// for ⌈β·log log n⌉ rounds in which *every* informed node transmits over
// four channels, so their length directly multiplies the O(n·log log n)
// constant. The paper uses a single "sufficiently large" α for all phases
// — a proof device; with α = 2 everywhere the four-choice/push crossover
// would sit beyond any feasible n. β = 0.5 keeps the schedule shape
// (Θ(log log n) full-push rounds) while making the constant small enough
// that the paper's separation is visible at laptop scales (experiment E2).
const DefaultBeta = 0.5

// Choices is the number of distinct neighbours each node dials per round in
// the modified phone call model (the paper's headline modification).
const Choices = 4

// Variant distinguishes the two degree regimes of the paper.
type Variant int

const (
	// Algorithm1 is the small-degree schedule (δ ≤ d ≤ δ·log log n):
	// single pull round followed by a push phase driven by active nodes.
	Algorithm1 Variant = iota + 1
	// Algorithm2 is the large-degree schedule (δ·log log n ≤ d ≤ δ·log n):
	// an extended pull phase and no Phase 4.
	Algorithm2
)

// String implements fmt.Stringer.
func (v Variant) String() string {
	switch v {
	case Algorithm1:
		return "algorithm1"
	case Algorithm2:
		return "algorithm2"
	default:
		return fmt.Sprintf("variant(%d)", int(v))
	}
}

// FourChoice is the paper's broadcast schedule. It implements
// phonecall.Protocol and is safe for concurrent use (it is immutable).
type FourChoice struct {
	variant Variant
	alpha   float64
	beta    float64
	nEst    int
	choices int

	t1      int // end of Phase 1
	t2      int // end of Phase 2
	pullEnd int // last pull round (== t2+1 for Algorithm 1)
	horizon int
}

var _ phonecall.Protocol = (*FourChoice)(nil)

// Option customises protocol construction.
type Option func(*options)

type options struct {
	alpha   float64
	beta    float64
	choices int
}

// WithAlpha overrides the Phase 1 / Phase 4 length constant α.
func WithAlpha(alpha float64) Option {
	return func(o *options) { o.alpha = alpha }
}

// WithBeta overrides the Phase 2 / Phase 3 length constant β (the number
// of full-push rounds is ⌈β·log log n⌉, floored at 1).
func WithBeta(beta float64) Option {
	return func(o *options) { o.beta = beta }
}

// WithChoices overrides the number of distinct neighbours dialled per
// round. The paper proves the O(n·log log n) bound for 4, conjectures 3
// suffice, and leaves 2 open — experiment E10 sweeps this knob.
func WithChoices(k int) Option {
	return func(o *options) { o.choices = k }
}

// NewAlgorithm1 builds the small-degree schedule from an estimate of the
// network size (accurate to within a constant factor).
func NewAlgorithm1(nEstimate int, opts ...Option) (*FourChoice, error) {
	return build(Algorithm1, nEstimate, opts)
}

// NewAlgorithm2 builds the large-degree schedule from an estimate of the
// network size.
func NewAlgorithm2(nEstimate int, opts ...Option) (*FourChoice, error) {
	return build(Algorithm2, nEstimate, opts)
}

// New selects the variant the paper prescribes for degree d: Algorithm 1
// when d ≤ max(8, 2·log log n) (the δ·log log n regime with δ = 2 and a
// floor for tiny n) and Algorithm 2 otherwise.
func New(nEstimate, d int, opts ...Option) (*FourChoice, error) {
	if d < Choices+1 {
		return nil, fmt.Errorf("core: degree %d too small; the four-choice model needs d >= %d", d, Choices+1)
	}
	threshold := 2 * log2(log2(float64(nEstimate)))
	if threshold < 8 {
		threshold = 8
	}
	if float64(d) <= threshold {
		return NewAlgorithm1(nEstimate, opts...)
	}
	return NewAlgorithm2(nEstimate, opts...)
}

func build(v Variant, nEstimate int, opts []Option) (*FourChoice, error) {
	if nEstimate < 4 {
		return nil, fmt.Errorf("core: network size estimate %d too small", nEstimate)
	}
	o := options{alpha: DefaultAlpha, beta: DefaultBeta, choices: Choices}
	for _, opt := range opts {
		opt(&o)
	}
	if o.alpha <= 0 {
		return nil, fmt.Errorf("core: alpha %v must be positive", o.alpha)
	}
	if o.beta <= 0 {
		return nil, fmt.Errorf("core: beta %v must be positive", o.beta)
	}
	if o.choices < 1 {
		return nil, fmt.Errorf("core: choices %d must be >= 1", o.choices)
	}
	logN := log2(float64(nEstimate))
	logLogN := log2(logN)
	if logLogN < 1 {
		logLogN = 1
	}
	t1 := int(math.Ceil(o.alpha * logN))
	l := int(math.Ceil(o.beta * logLogN))
	if l < 1 {
		l = 1
	}
	p := &FourChoice{variant: v, alpha: o.alpha, beta: o.beta, nEst: nEstimate, choices: o.choices, t1: t1, t2: t1 + l}
	switch v {
	case Algorithm1:
		p.pullEnd = p.t2 + 1
		p.horizon = 2*t1 + l
	case Algorithm2:
		p.pullEnd = t1 + 2*l
		p.horizon = t1 + 2*l
	default:
		return nil, fmt.Errorf("core: unknown variant %d", v)
	}
	if p.horizon <= p.t2 {
		// Guard against degenerate tiny-n schedules.
		p.horizon = p.t2 + 1
		p.pullEnd = p.t2 + 1
	}
	return p, nil
}

// Name implements phonecall.Protocol.
func (p *FourChoice) Name() string {
	return fmt.Sprintf("%d-choice/%s(α=%g,ñ=%d)", p.choices, p.variant, p.alpha, p.nEst)
}

// Choices implements phonecall.Protocol.
func (p *FourChoice) Choices() int { return p.choices }

// Horizon implements phonecall.Protocol.
func (p *FourChoice) Horizon() int { return p.horizon }

// Variant returns which of the paper's two schedules this is.
func (p *FourChoice) Variant() Variant { return p.variant }

// PhaseBoundaries returns (T1, T2, lastPullRound, horizon) for inspection
// by experiments and traces.
func (p *FourChoice) PhaseBoundaries() (t1, t2, pullEnd, horizon int) {
	return p.t1, p.t2, p.pullEnd, p.horizon
}

// Phase returns the phase number (1-4) active in round t, or 0 if t is
// outside the schedule.
func (p *FourChoice) Phase(t int) int {
	switch {
	case t < 1 || t > p.horizon:
		return 0
	case t <= p.t1:
		return 1
	case t <= p.t2:
		return 2
	case t <= p.pullEnd:
		return 3
	default:
		return 4
	}
}

// SendPush implements phonecall.Protocol.
func (p *FourChoice) SendPush(t, informedAt int) bool {
	switch p.Phase(t) {
	case 1:
		// Only nodes that created or first received the message in the
		// previous round push.
		return informedAt == t-1
	case 2:
		return true
	case 4:
		// Active nodes: informed during Phase 3 or later (Algorithm 1 only).
		return informedAt >= p.t2+1 && informedAt < t
	default:
		return false
	}
}

// SendPull implements phonecall.Protocol.
func (p *FourChoice) SendPull(t, informedAt int) bool {
	return p.Phase(t) == 3 && informedAt < t
}

// Sequentialised wraps a FourChoice schedule in the one-dial-per-round
// model of footnote 2: each node dials a single neighbour per round,
// avoiding the partners of the last three rounds (Memory, which the engine
// reads through phonecall.DialMemory). Four consecutive rounds of this
// model correspond to one round of the four-choice model, so the horizon
// stretches by a factor of four.
type Sequentialised struct {
	base *FourChoice
}

var _ phonecall.DialMemory = (*Sequentialised)(nil)

// NewSequentialised wraps base in the sequentialised model.
func NewSequentialised(base *FourChoice) *Sequentialised {
	return &Sequentialised{base: base}
}

// Memory implements phonecall.DialMemory: the number of recent partners a
// node must avoid, k-1 for the base's k choices.
func (s *Sequentialised) Memory() int { return s.base.choices - 1 }

// Name implements phonecall.Protocol.
func (s *Sequentialised) Name() string { return "sequentialised/" + s.base.Name() }

// Choices implements phonecall.Protocol.
func (s *Sequentialised) Choices() int { return 1 }

// Horizon implements phonecall.Protocol.
func (s *Sequentialised) Horizon() int { return s.base.choices * s.base.horizon }

// SendPush implements phonecall.Protocol by mapping each block of k
// sequential rounds onto one base round. A node informed within the
// current block stays silent until the next block begins, preserving the
// base model's "receive in round T, transmit from round T+1" semantics.
func (s *Sequentialised) SendPush(t, informedAt int) bool {
	bt, bia := s.blockOf(t), s.blockOf(informedAt)
	if bia >= bt {
		return false
	}
	return s.base.SendPush(bt, bia)
}

// SendPull implements phonecall.Protocol.
func (s *Sequentialised) SendPull(t, informedAt int) bool {
	bt, bia := s.blockOf(t), s.blockOf(informedAt)
	if bia >= bt {
		return false
	}
	return s.base.SendPull(bt, bia)
}

// blockOf maps a sequential round to its base-model round. Round 0 (the
// message's creation) maps to base round 0.
func (s *Sequentialised) blockOf(t int) int {
	if t <= 0 {
		return 0
	}
	k := s.base.choices
	return (t + k - 1) / k
}

func log2(x float64) float64 {
	if x <= 1 {
		return 0
	}
	return math.Log2(x)
}
