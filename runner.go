package regcast

import (
	"context"
	"fmt"
	"time"

	"regcast/internal/phonecall"
	"regcast/internal/sched"
	"regcast/internal/transport"
)

// Engine selects how a Runner executes a Scenario. There are two: the
// simulator (the default every experiment and benchmark cell runs) and the
// deployment-shaped gossip daemon (sockets, dials, queues, a wire, a
// per-node dedup bit and a health ledger).
type Engine int

const (
	// EngineSimulator is the round simulator: nodes partitioned into
	// DefaultShards shards with independent PRNG streams, the shard passes
	// run inline or on a pool (WithWorkers) — bit-identical results,
	// whatever the worker count.
	EngineSimulator Engine = iota
	// EngineDaemonTransport runs the scenario's protocol on the resilient
	// gossip daemon (internal/transport), one tick per round: nodes push
	// and answer pulls exactly when SendPush/SendPull say so, over
	// persistent per-peer TCP connections with redial backoff, bounded
	// send queues and a mailbox that takes the rumour once per node. A
	// run without faults whose ticks all settle (TickTimeouts == 0) is
	// reproducible from the seed.
	// WithTransportFaults injects reproducible chaos in front of it.
	EngineDaemonTransport
)

// String implements fmt.Stringer.
func (e Engine) String() string {
	switch e {
	case EngineSimulator:
		return "simulator"
	case EngineDaemonTransport:
		return "daemon-transport"
	default:
		return fmt.Sprintf("engine(%d)", int(e))
	}
}

// Runner executes Scenarios on a chosen engine. The zero value runs the
// simulator with its shard passes inline; construct variants with
// NewRunner. Runners are stateless values — one Runner may run many
// Scenarios, concurrently if desired (a Scenario built with WithRNG is the
// exception: its stream is unsynchronised, so never run that one scenario
// concurrently with itself).
type Runner struct {
	engine  Engine
	workers int
	mailbox int
	faults  *transport.FaultConfig
}

// RunnerOption customises a Runner.
type RunnerOption func(*Runner)

// WithEngine selects the execution engine explicitly.
func WithEngine(e Engine) RunnerOption { return func(r *Runner) { r.engine = e } }

// WithWorkers chooses where the simulator's shard passes execute,
// mirroring the commands' -workers flag: 0 and 1 inline on the calling
// goroutine, WorkersAuto (-1) on GOMAXPROCS pooled workers, any larger n
// on a pool of n. It affects wall-clock time only — results are
// bit-identical for every value — and the daemon engine ignores it.
func WithWorkers(n int) RunnerOption { return func(r *Runner) { r.workers = n } }

// WithMailbox sets the per-node mailbox capacity of the daemon engine
// (default 1024 packets); the simulator refuses it.
func WithMailbox(n int) RunnerOption { return func(r *Runner) { r.mailbox = n } }

// NewRunner builds a Runner; with no options it runs EngineSimulator.
func NewRunner(opts ...RunnerOption) Runner {
	var r Runner
	for _, opt := range opts {
		opt(&r)
	}
	return r
}

// Result summarises a completed run, independent of the engine that
// produced it.
type Result struct {
	// Engine records which engine executed the run.
	Engine Engine
	// Rounds is the number of rounds (daemon engine: ticks) executed: the
	// protocol's horizon, or FirstAllInformed under WithStopEarly.
	Rounds int
	// CountedRounds is how many of them, the last ones, the simulator
	// counted instead of simulating: once every node is informed on a static,
	// fault-free topology a round's transmissions are a sum over receipt
	// cohorts. No count differs for it; 0 when the run never settled.
	CountedRounds int
	// Informed is the number of informed alive nodes at the end.
	Informed int
	// AliveNodes is the number of alive nodes at the end.
	AliveNodes int
	// AllInformed reports whether every alive node was informed at the end.
	AllInformed bool
	// FirstAllInformed is the earliest round after which every alive node
	// was informed, or -1 if that never happened.
	FirstAllInformed int
	// Transmissions counts the pushes and pull replies that carry the
	// message (daemon engine: handed to the transport); ChannelsDialed
	// charges the pull requests.
	Transmissions int64
	// ChannelsDialed counts the channel dials the model mandates.
	ChannelsDialed int64
	// InformedAt[v] is the round in which v first received the message
	// (Uninformed if never).
	InformedAt []int32
	// Transport is the daemon engine's ledger, taken after the cluster
	// closed (nil for the simulator): drop buckets, dials, dedup hits,
	// per-peer state, and the fault ledger under WithTransportFaults. Its
	// LedgerGap() is zero.
	Transport *TransportHealth
	// TickTimeouts counts the daemon engine's ticks that had not fallen
	// silent (Cluster.Settle) when the per-tick deadline passed; always 0
	// on the simulator. A timed-out tick is attributed the receipts seen so
	// far; later arrivals are charged to a later tick, so a non-zero count
	// means InformedAt and the OnRound stream are skewed late.
	TickTimeouts int
	// Population is the population engine's own result (nil for
	// broadcasts): the Measure trajectory's end point, the silence
	// accounting and the final agent states, which the shared fields above
	// cannot carry.
	Population *PopulationResult
}

// AnyScenario is the sealed union of the scenario kinds a Runner can
// execute: Scenario (phone-call broadcast) and PopulationScenario
// (pairwise-interaction protocols), by value or pointer. It exists so
// Runner.Run and Batch are the single way to execute and replicate every
// workload. The interface is sealed (the marker method is unexported);
// external types cannot implement it, which is what lets resolveScenario's
// type switch be exhaustive.
type AnyScenario interface {
	anyScenario()
}

// scenarioKind is an AnyScenario resolved to its one concrete kind, by
// value: exactly one of broadcast and population is meaningful.
type scenarioKind struct {
	isPopulation bool
	broadcast    Scenario
	population   PopulationScenario
}

// resolveScenario is the one place the union's value and pointer forms
// are told apart, shared by Runner.Run and Batch. A nil interface and a
// typed nil pointer are both the "nil scenario" error.
func resolveScenario(s AnyScenario) (scenarioKind, error) {
	switch sc := s.(type) {
	case Scenario:
		return scenarioKind{broadcast: sc}, nil
	case *Scenario:
		if sc != nil {
			return scenarioKind{broadcast: *sc}, nil
		}
	case PopulationScenario:
		return scenarioKind{isPopulation: true, population: sc}, nil
	case *PopulationScenario:
		if sc != nil {
			return scenarioKind{isPopulation: true, population: *sc}, nil
		}
	case nil:
	default:
		// Unreachable while AnyScenario stays sealed.
		return scenarioKind{}, fmt.Errorf("regcast: unsupported scenario kind %T", s)
	}
	return scenarioKind{}, fmt.Errorf("regcast: nil scenario")
}

// Run executes the scenario with default runner options — the simulator,
// shard passes inline — unless opts say otherwise.
func Run(ctx context.Context, s AnyScenario, opts ...RunnerOption) (Result, error) {
	return NewRunner(opts...).Run(ctx, s)
}

// Run executes one scenario of any kind. Cancelling ctx stops the run at
// the next round boundary and returns ctx.Err() alongside the partial
// result accumulated so far.
//
// A PopulationScenario's result is folded into the shared Result shape
// with one fixed mapping, which is also what Batch aggregates: Rounds is
// the super-steps executed, ChannelsDialed the total interactions (the
// work analogue of the dial budget), AllInformed the converged flag; on
// convergence Informed is N, FirstAllInformed the convergence super-step
// and Transmissions the interactions to convergence, otherwise Informed
// is 0, FirstAllInformed -1 and Transmissions the total (budget-censored)
// interactions. Result.Population carries the population-specific fields
// (Measure, silence, final states).
func (r Runner) Run(ctx context.Context, s AnyScenario) (Result, error) {
	k, err := resolveScenario(s)
	if err != nil {
		return Result{}, err
	}
	return r.run(ctx, k)
}

// run validates the runner, then dispatches on the resolved kind (Batch
// enters here with the kind it resolved once for all replications).
func (r Runner) run(ctx context.Context, k scenarioKind) (Result, error) {
	if err := r.validate(); err != nil {
		return Result{}, err
	}
	if k.isPopulation {
		return r.runPopulationScenario(ctx, k.population)
	}
	return r.runScenario(ctx, k.broadcast)
}

// validate rejects runner configurations no scenario kind accepts.
func (r Runner) validate() error {
	if err := sched.CheckWorkers("regcast: workers", r.workers); err != nil {
		return err
	}
	switch r.engine {
	case EngineSimulator:
		if r.faults != nil {
			return fmt.Errorf("regcast: WithTransportFaults requires a transport engine, not %v", r.engine)
		}
		if r.mailbox != 0 {
			return fmt.Errorf("regcast: WithMailbox requires a transport engine, not %v", r.engine)
		}
	case EngineDaemonTransport:
	default:
		return fmt.Errorf("regcast: unknown engine %v", r.engine)
	}
	return nil
}

// runScenario executes one phone-call scenario.
func (r Runner) runScenario(ctx context.Context, s Scenario) (Result, error) {
	if err := s.validate(); err != nil {
		return Result{}, err
	}
	// A spec scenario builds its topology now, from its own stream (the
	// WithRNG stream or the seed-derived one), and the run continues on
	// that same stream — the master.Split() idiom with the splits done by
	// the spec. Batch replications bypass this by materialising per
	// replication themselves.
	if s.cfg.Topology == nil {
		var err error
		if s, err = s.materialize(0, s.runRNG()); err != nil {
			return Result{}, err
		}
	}
	if r.engine == EngineSimulator {
		return r.runSimulation(ctx, s)
	}
	return r.runTransport(ctx, s)
}

// haltFor adapts ctx cancellation to the engines' per-round Halt poll.
func haltFor(ctx context.Context) func() bool {
	if ctx == nil {
		return nil
	}
	done := ctx.Done()
	if done == nil {
		return nil
	}
	return func() bool {
		select {
		case <-done:
			return true
		default:
			return false
		}
	}
}

// ctxErr reports the cancellation error to attach to a partial result.
func ctxErr(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	return ctx.Err()
}

// runSimulation drives the phone-call engine on the scenario's model and
// the run's own fields.
func (r Runner) runSimulation(ctx context.Context, s Scenario) (Result, error) {
	cfg := s.cfg
	cfg.RNG, cfg.Workers, cfg.Halt = s.runRNG(), r.workers, haltFor(ctx)
	res, err := phonecall.Run(cfg)
	if err != nil {
		return Result{}, err
	}
	return Result{
		Engine:           r.engine,
		Rounds:           res.Rounds,
		CountedRounds:    res.CountedRounds,
		Informed:         res.Informed,
		AliveNodes:       res.AliveNodes,
		AllInformed:      res.AllInformed,
		FirstAllInformed: res.FirstAllInformed,
		Transmissions:    res.Transmissions,
		ChannelsDialed:   res.ChannelsDialed,
		InformedAt:       res.InformedAt,
	}, ctxErr(ctx)
}

// runTransport executes the scenario on the daemon, one tick per round of
// its protocol (transport.Cluster). The daemon's jitter and the nodes' peer
// picks draw from two seeds off the run's stream, so a run without faults
// whose ticks all settle is reproducible from the seed.
func (r Runner) runTransport(ctx context.Context, s Scenario) (Result, error) {
	st, ok := s.cfg.Topology.(phonecall.Static)
	if !ok {
		return Result{}, fmt.Errorf("regcast: the %v engine requires a Static topology", r.engine)
	}
	memory, _ := s.cfg.Protocol.(phonecall.DialMemory)
	if memory != nil && memory.Memory() > 0 || s.cfg.DialStrategy != DialUniform || s.cfg.TrackEdgeUse {
		return Result{}, fmt.Errorf("regcast: the %v engine supports only DialUniform without dial memory or edge tracking", r.engine)
	}
	if s.cfg.ChannelFailureProb != 0 || s.cfg.MessageLossProb != 0 {
		return Result{}, fmt.Errorf("regcast: the %v engine does not simulate channel failure or message loss", r.engine)
	}
	g := st.G
	n := g.NumNodes()
	if r.faults != nil {
		if err := faultNodesInRange(*r.faults, n); err != nil {
			return Result{}, err
		}
	}
	rng := s.runRNG()
	daemonSeed, clusterSeed := rng.Uint64(), rng.Uint64()
	var tr transport.Transport
	tr, err := transport.NewDaemon(transport.DaemonConfig{
		Nodes:   n,
		Mailbox: r.mailbox,
		Seed:    daemonSeed,
	})
	if err != nil {
		return Result{}, err
	}
	var plan *transport.FaultPlan
	if r.faults != nil {
		plan, err = transport.NewFaultPlan(tr, *r.faults)
		if err != nil {
			tr.Close()
			return Result{}, err
		}
		tr = plan
	}
	cluster, err := transport.NewCluster(g, tr, s.cfg.Protocol, clusterSeed)
	if err != nil {
		tr.Close()
		return Result{}, err
	}
	defer cluster.Close()

	if err := cluster.Insert(s.cfg.Source); err != nil {
		return Result{}, err
	}

	obs := s.cfg.Observer
	informedAt := make([]int32, n)
	for v := range informedAt {
		informedAt[v] = Uninformed
	}
	informedAt[s.cfg.Source] = 0
	if obs != nil {
		obs.OnInformed(s.cfg.Source, 0)
	}

	budget := phonecall.DialBudget(st, s.cfg.Protocol.Choices())

	res := Result{Engine: r.engine, FirstAllInformed: -1, AliveNodes: n}
	informed := 1
	var lastSent int64
	var newly []int
	halt := haltFor(ctx)
	for t := 1; t <= s.cfg.Protocol.Horizon(); t++ {
		if halt != nil && halt() {
			break
		}
		if plan != nil {
			// One tick = one fault epoch: partition and crash windows in
			// the plan are tick ranges.
			plan.AdvanceEpoch()
		}
		if err := cluster.Tick(t); err != nil {
			return Result{}, err
		}
		if cluster.Settle(tickDeadline) {
			res.TickTimeouts++
		}

		newly = cluster.Newly(newly[:0])
		for _, v := range newly {
			at := cluster.HeardAt(v)
			informedAt[v] = int32(at)
			if obs != nil {
				obs.OnInformed(v, at)
			}
		}
		informed += len(newly)
		sent := cluster.Transmissions()
		if obs != nil {
			obs.OnRound(RoundStats{
				Round:         t,
				NewlyInformed: len(newly),
				Informed:      informed,
				Transmissions: sent - lastSent,
				ChannelsDial:  budget,
			})
		}
		lastSent = sent
		res.Rounds = t
		res.ChannelsDialed += budget
		if informed == n && res.FirstAllInformed < 0 {
			res.FirstAllInformed = t
			if s.cfg.StopEarly {
				break
			}
		}
	}
	res.Informed = informed
	res.AllInformed = informed == n
	res.Transmissions = cluster.Transmissions()
	res.InformedAt = informedAt
	// Close first (idempotent) so the snapshot is a fully-accounted ledger.
	_ = cluster.Close()
	h := tr.Health()
	res.Transport = &h
	return res, ctxErr(ctx)
}

// tickDeadline bounds one tick's Settle; a test shortens it.
var tickDeadline = time.Second
