package regcast

import (
	"context"
	"fmt"

	"regcast/internal/population"
)

// Population-protocol facade: the interaction-model counterpart of
// Scenario/Run. A PopulationScenario describes one run of an
// agent-state machine under the uniform random-pair scheduler (or the
// synchronous ring scheduler), and Runner.Run executes it on
// EngineSimulator with the WithWorkers and DefaultShards the phone-call
// scenarios use — every worker count produces the same trace here too,
// because population pair draws are state-independent (see
// internal/population).

// Facade aliases for the population engine's vocabulary.
type (
	// PopulationState is one agent's packed state word.
	PopulationState = population.State
	// PairProtocol is an agent-state machine under uniform random ordered
	// pairs; see internal/population.
	PairProtocol = population.PairProtocol
	// RingProtocol is an agent-state machine under synchronous ring steps.
	RingProtocol = population.RingProtocol
	// SuperStepStats is the per-super-step record streamed to observers.
	SuperStepStats = population.SuperStepStats
	// PopulationObserver consumes per-super-step statistics online.
	PopulationObserver = population.Observer
	// PopulationResult summarises one population run.
	PopulationResult = population.Result
	// LeaderElection is the self-stabilizing ranked-timeout leader
	// election protocol (uniform pairs on the clique).
	LeaderElection = population.LeaderElection
	// HermanRing is Herman's self-stabilizing token ring (synchronous
	// coin-flip variant).
	HermanRing = population.Herman
	// ApproxMajority is the three-state approximate-majority protocol
	// (undecided-state dynamics) — the showcase workload for the
	// population engine's table fast path.
	ApproxMajority = population.ApproxMajority

	// TablePairProtocol is the optional PairProtocol extension that lets
	// the engine compile Transition into a dense lookup table; see
	// population.TableProtocol for the StateBound/CoinBits contract.
	TablePairProtocol = population.TableProtocol
	// CountsPairProtocol is the optional measure-through-occupancy
	// extension: it engages alongside a compiled transition table (the
	// protocol must also be a TablePairProtocol that compiles), whose
	// loop keeps an exact per-state occupancy vector; the engine folds it
	// with MeasureCounts instead of scanning all n agents.
	CountsPairProtocol = population.CountsProtocol
	// BatchPairProtocol is the devirtualisation hook for protocols whose
	// state space is too large to table-compile: ApplyPairs applies a
	// whole pre-drawn block in one loop.
	BatchPairProtocol = population.BatchProtocol
	// RingTableProtocol is the table extension for ring protocols.
	RingTableProtocol = population.RingTableProtocol
)

// Approximate-majority state values (facade names for the population
// package's constants).
const (
	MajorityBlank = population.MajBlank
	MajorityX     = population.MajX
	MajorityY     = population.MajY
)

// NewLeaderElection builds the self-stabilizing leader-election protocol
// for an n-agent clique.
func NewLeaderElection(n int) (*LeaderElection, error) {
	return population.NewLeaderElection(n)
}

// NewHermanRing builds Herman's token ring for an odd n-agent ring.
func NewHermanRing(n int) (*HermanRing, error) {
	return population.NewHerman(n)
}

// NewApproxMajority builds the three-state approximate-majority
// protocol.
func NewApproxMajority() *ApproxMajority { return population.NewApproxMajority() }

// InitMajority builds an initial configuration with ceil(frac*n) agents
// holding opinion X and the rest opinion Y; frac barely above 1/2 is
// the adversarial close-race start.
func InitMajority(frac float64) func(i, n int, coin uint64) PopulationState {
	return population.InitMajority(frac)
}

// InitAllLeaders is the canonical adversarial start for leader election:
// every agent a leader with a distinct rank.
func InitAllLeaders(i, n int, coin uint64) PopulationState {
	return population.InitAllLeaders(i, n, coin)
}

// InitLeaderless is the canonical adversarial start for leader election:
// no leaders, expired timers.
func InitLeaderless(i, n int, coin uint64) PopulationState {
	return population.InitLeaderless(i, n, coin)
}

// HermanInitTokens builds an adversarial Herman start with exactly k
// equally spaced tokens on an n-ring (k odd; k = 3 is the conjectured
// worst case).
func HermanInitTokens(n, k int) (func(i, n int, coin uint64) PopulationState, error) {
	return population.InitTokens(n, k)
}

// PopulationScenario describes one population-protocol run: the agent
// count, the protocol (exactly one of Pair and Ring), an optional
// adversarial initial configuration, and the run's seed and step budget.
type PopulationScenario struct {
	// N is the number of agents.
	N int
	// Pair selects the uniform random ordered-pair scheduler.
	Pair PairProtocol
	// Ring selects the synchronous ring scheduler.
	Ring RingProtocol
	// Init maps an agent index to its initial state (nil = zero states);
	// coin is a fresh word from the run's init stream.
	Init func(i, n int, coin uint64) PopulationState
	// Seed is the run's master seed.
	Seed uint64
	// rng, when non-nil, overrides Seed with the replication's stream that
	// Batch hands each run.
	rng *Rand
	// MaxSteps bounds the run in super-steps of N interactions; zero
	// selects the default documented on population.Config.
	MaxSteps int
	// Observer receives per-super-step statistics.
	Observer PopulationObserver
}

// anyScenario marks PopulationScenario as a member of the sealed
// AnyScenario union, so Runner.Run accepts it directly.
func (PopulationScenario) anyScenario() {}

// runPopulationScenario executes one population scenario on the simulator
// and folds its result into the shared Result shape (the mapping documented
// on Runner.Run); the trace is bit-identical for every worker count. Other
// engines reject the scenario. Cancelling ctx stops the run at the next
// super-step boundary and returns ctx.Err() alongside the partial result.
func (r Runner) runPopulationScenario(ctx context.Context, s PopulationScenario) (Result, error) {
	if r.engine != EngineSimulator {
		return Result{}, fmt.Errorf("regcast: the %v engine cannot run population scenarios (use EngineSimulator)", r.engine)
	}
	rng := s.rng
	if rng == nil {
		rng = NewRand(s.Seed)
	}
	pres, err := population.Run(population.Config{
		N:        s.N,
		Pair:     s.Pair,
		Ring:     s.Ring,
		Init:     s.Init,
		RNG:      rng,
		MaxSteps: s.MaxSteps,
		Workers:  r.workers,
		Observer: s.Observer,
		Halt:     haltFor(ctx),
	})
	if err != nil {
		return Result{}, err
	}
	res := Result{
		Rounds:           pres.Steps,
		AliveNodes:       s.N,
		AllInformed:      pres.Converged,
		FirstAllInformed: -1,
		Transmissions:    pres.Interactions,
		ChannelsDialed:   pres.Interactions,
		Population:       &pres,
	}
	if pres.Converged {
		res.Informed = s.N
		res.FirstAllInformed = pres.ConvergedAt
		res.Transmissions = pres.ConvergedInteractions
	}
	return res, ctxErr(ctx)
}
