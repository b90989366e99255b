package regcast

import (
	"fmt"

	"regcast/internal/phonecall"
)

// Scenario is one fully described broadcast: a topology, a protocol
// schedule, a fault model, and the observation hooks. Build it with
// NewScenario (around a concrete Topology instance) or NewScenarioSpec
// (around a declarative TopologySpec); the zero value is not runnable. A
// Scenario is engine-agnostic — the Runner decides how it executes.
//
// Internally a Scenario always holds a TopologySpec; NewScenario wraps
// its instance as a constant spec (FixedTopology), which is why the two
// constructors behave identically under a single Run. They differ under
// replication: a Batch re-Builds a spec scenario's topology per
// replication (so churning topologies replicate safely and per-run
// graphs need no builder callback), while a constant-spec scenario
// shares its one instance across replications.
type Scenario struct {
	spec TopologySpec
	// cfg is the broadcast: the model (Protocol, Source, the fault
	// probabilities, DialStrategy, TrackEdgeUse, StopEarly), the Topology
	// instance (set for constant specs, else materialised per run), the
	// WithRNG stream and the observers' fan-out. A run copies it and adds
	// its own fields (runSimulation).
	cfg  phonecall.Config
	seed uint64
}

// anyScenario marks Scenario as a member of the sealed AnyScenario
// union accepted by Runner.Run.
func (Scenario) anyScenario() {}

// ScenarioOption customises a Scenario under construction.
type ScenarioOption func(*Scenario)

// WithSource sets the node that creates the message in round 0 (default 0).
func WithSource(v int) ScenarioOption { return func(s *Scenario) { s.cfg.Source = v } }

// WithSeed seeds the run's randomness (default 1). Every Run of the same
// Scenario and engine reproduces the same trace.
func WithSeed(seed uint64) ScenarioOption {
	return func(s *Scenario) { s.seed = seed }
}

// WithRNG drives the run from an existing stream instead of a fresh seed —
// the master.Split() idiom of programs that also generate their topology
// from the master seed. The stream advances across runs and is not
// synchronised, so a WithRNG scenario must not be Run concurrently with
// itself and repeated Runs differ; use WithSeed for repeatable traces and
// for scenarios shared between goroutines.
func WithRNG(rng *Rand) ScenarioOption { return func(s *Scenario) { s.cfg.RNG = rng } }

// WithDialStrategy selects the neighbour-selection discipline (default
// DialUniform). DialQuasirandom requires a push-only protocol (SendPull
// false in every round of the horizon) without dial memory (a protocol
// with a Memory method, phonecall.DialMemory); NewScenario rejects both
// combinations.
func WithDialStrategy(d DialStrategy) ScenarioOption {
	return func(s *Scenario) { s.cfg.DialStrategy = d }
}

// WithChannelFailure sets the probability that a dialled channel fails to
// establish.
func WithChannelFailure(p float64) ScenarioOption {
	return func(s *Scenario) { s.cfg.ChannelFailureProb = p }
}

// WithMessageLoss sets the probability that an individual transmission is
// lost in transit (lost transmissions still count as transmissions).
func WithMessageLoss(p float64) ScenarioOption {
	return func(s *Scenario) { s.cfg.MessageLossProb = p }
}

// WithStopEarly stops the run as soon as every alive node is informed,
// instead of measuring the full schedule's transmission cost: a different
// result (fewer rounds charged), not a faster way to the same one — on a
// static, fault-free topology the simulator counts the rounds after the last
// receipt instead of simulating them (Result.CountedRounds).
func WithStopEarly() ScenarioOption { return func(s *Scenario) { s.cfg.StopEarly = true } }

// WithTrackEdgeUse enables the unused-edge census of the paper's Lemma 4
// (RoundStats.UnusedEdgeNodes), read through WithObserver: the run needs
// an observer, EngineSimulator and a static topology that declares
// symmetric adjacency (Graph.Symmetric).
func WithTrackEdgeUse() ScenarioOption { return func(s *Scenario) { s.cfg.TrackEdgeUse = true } }

// WithObserver streams per-round metrics to obs during the run — the one
// way a caller sees RoundStats; Result keeps totals only. Repeating
// the option registers several observers; they are invoked in registration
// order, from the engine's coordinating goroutine only.
func WithObserver(obs Observer) ScenarioOption {
	return func(s *Scenario) { s.cfg.Observer = addObserver(s.cfg.Observer, obs) }
}

// NewScenario validates and assembles a broadcast scenario on the given
// topology instance and protocol schedule. The instance is held as a
// constant spec (FixedTopology): every run — and every replication of a
// Batch — executes on this one topology.
func NewScenario(topo Topology, proto Protocol, opts ...ScenarioOption) (Scenario, error) {
	if topo == nil {
		return Scenario{}, fmt.Errorf("regcast: scenario requires a Topology")
	}
	return assemble(Scenario{spec: FixedTopology(topo), cfg: phonecall.Config{Topology: topo, Protocol: proto}, seed: 1}, opts)
}

// NewScenarioSpec validates and assembles a broadcast scenario on a
// declarative topology spec. The topology is built when the scenario
// runs: once per Runner.Run (from the scenario's own stream), or once per
// replication of a Batch (from the replication's derived stream) — which
// is what lets churning topologies such as OverlaySpec replicate without
// sharing state, appear in sweep grids, and randomise per-run graphs
// without a Batch.New builder. Topology-dependent validation (source
// range and liveness) necessarily happens at build time.
func NewScenarioSpec(spec TopologySpec, proto Protocol, opts ...ScenarioOption) (Scenario, error) {
	if spec == nil {
		return Scenario{}, fmt.Errorf("regcast: scenario requires a TopologySpec")
	}
	s := Scenario{spec: spec, cfg: phonecall.Config{Protocol: proto}, seed: 1}
	// A constant spec is unwrapped eagerly, making
	// NewScenarioSpec(FixedTopology(t), ...) exactly equivalent to
	// NewScenario(t, ...): instance-dependent validation runs at
	// construction, and the batch layer's shared-instance rules (e.g. the
	// dynamic-Stepper rejection) see the instance.
	if fs, ok := spec.(fixedSpec); ok {
		s.cfg.Topology = fs.topo
		if s.cfg.Topology == nil {
			return Scenario{}, fmt.Errorf("regcast: scenario requires a Topology")
		}
	}
	return assemble(s, opts)
}

// assemble applies the options and runs construction-time validation.
func assemble(s Scenario, opts []ScenarioOption) (Scenario, error) {
	for _, opt := range opts {
		opt(&s)
	}
	if err := s.validate(); err != nil {
		return Scenario{}, err
	}
	return s, nil
}

// validate checks every constraint that does not need a topology
// instance — phonecall's rules of the model (Config.Validate) — plus the
// instance-dependent ones (validateTopo) when the instance is already
// known, so misconfiguration fails at construction time with a
// descriptive error rather than deep in an engine. Spec scenarios re-run
// validateTopo after each materialisation.
func (s *Scenario) validate() error {
	if s.spec == nil {
		return fmt.Errorf("regcast: scenario requires a Topology")
	}
	if err := s.cfg.Validate(); err != nil {
		return err
	}
	if s.cfg.Topology != nil {
		return s.validateTopo()
	}
	if s.cfg.Source < 0 {
		return fmt.Errorf("regcast: source %d < 0", s.cfg.Source)
	}
	return nil
}

// validateTopo checks the constraints that need a topology instance: the
// source is one of its alive ids.
func (s *Scenario) validateTopo() error {
	return phonecall.CheckOrigin(s.cfg.Topology, "source", s.cfg.Source)
}

// materialize builds a spec scenario's topology for replication rep from
// rng and returns the runnable copy: the built instance installed, the
// same stream carried forward for the run itself, and the instance-
// dependent validation re-run. Constant-spec scenarios (topo already
// set) are returned unchanged.
func (s Scenario) materialize(rep int, rng *Rand) (Scenario, error) {
	if s.cfg.Topology != nil {
		return s, nil
	}
	topo, err := s.spec.Build(rep, rng)
	if err != nil {
		return Scenario{}, err
	}
	if topo == nil {
		return Scenario{}, fmt.Errorf("regcast: TopologySpec built a nil topology")
	}
	s.cfg.Topology, s.cfg.RNG = topo, rng
	if err := s.validateTopo(); err != nil {
		return Scenario{}, err
	}
	return s, nil
}

// runRNG returns the stream the run draws from: the explicit WithRNG
// stream, or a fresh seed-derived one.
func (s *Scenario) runRNG() *Rand {
	if s.cfg.RNG != nil {
		return s.cfg.RNG
	}
	return NewRand(s.seed)
}

// dynamic reports whether the topology churns between rounds.
func (s *Scenario) dynamic() bool {
	_, ok := s.cfg.Topology.(Stepper)
	return ok
}
