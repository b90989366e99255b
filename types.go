package regcast

import (
	"regcast/internal/core"
	"regcast/internal/graph"
	"regcast/internal/phonecall"
	"regcast/internal/transport"
	"regcast/internal/xrand"
)

// The facade re-exports the simulation model's core types as aliases, so
// programs build scenarios, implement protocols, and consume results using
// only the regcast import path. The aliased types are identical to the
// internal ones — a Protocol written against the facade runs unchanged on
// every engine.
type (
	// Protocol is a strictly oblivious broadcast schedule; see the
	// documentation on phonecall.Protocol for the model's ground rules.
	Protocol = phonecall.Protocol
	// Topology is the engines' view of the network.
	Topology = phonecall.Topology
	// Stepper marks topologies that churn between rounds.
	Stepper = phonecall.Stepper
	// CSRViewer marks topologies that expose an epoch-stamped CSR view —
	// the cheapest of the simulator's views. Static
	// graphs and OverlaySpec topologies implement it; custom topologies
	// can too (see the documentation on phonecall.CSRViewer for the
	// epoch and liveness-bitset rules).
	CSRViewer = phonecall.CSRViewer
	// ImplicitViewer marks topologies with computed adjacency — the second
	// viewer contract, for families whose neighbours
	// are arithmetic (hypercube, torus, seeded streaming graphs) so no
	// adjacency array is ever built. See phonecall.ImplicitViewer for the
	// epoch and liveness-bitset rules, which mirror CSRViewer exactly.
	ImplicitViewer = phonecall.ImplicitViewer
	// ImplicitNeighbors is the computable-adjacency surface consumed by
	// ImplicitViewer: Degree and NeighborAt arithmetic that must enumerate
	// exactly what a materialised CSR row would hold.
	ImplicitNeighbors = phonecall.ImplicitNeighbors
	// DialStrategy selects the neighbour-selection discipline.
	DialStrategy = phonecall.DialStrategy
	// RoundStats carries one round's metrics, streamed to observers
	// (WithObserver) — the only per-round channel out of a run.
	RoundStats = phonecall.RoundMetrics
	// Observer receives streaming per-round callbacks; see the
	// documentation on phonecall.Observer for the ordering guarantees.
	Observer = phonecall.Observer
	// PhaseObserver is the optional extension of Observer that also
	// receives, per round, the time the simulator's coordinator spent in
	// the round's three steps (decision tables, shard passes, merge); a
	// round that was counted, not simulated (Result.CountedRounds), reports
	// (count, 0, 0). The daemon engine has no such steps and never calls it.
	PhaseObserver = phonecall.PhaseObserver
	// Graph is an immutable undirected multigraph (see internal/graph for
	// generators beyond RandomRegular).
	Graph = graph.Graph
	// Rand is the deterministic splittable PRNG that drives every engine.
	Rand = xrand.Rand
	// PairDraw is one pre-drawn population interaction (ordered pair plus
	// coin word) — the record type of the population engine's batched draw
	// path and of BatchPairProtocol kernels.
	PairDraw = xrand.PairDraw
)

const (
	// DialUniform is the (modified) random phone call model's discipline: k
	// distinct neighbours chosen uniformly every round.
	DialUniform = phonecall.DialUniform
	// DialQuasirandom is the quasirandom rumor-spreading discipline of
	// Doerr, Friedrich & Sauerwald: successive neighbour-list entries from
	// a random start. Push-only protocols only; NewScenario enforces this.
	DialQuasirandom = phonecall.DialQuasirandom
	// Uninformed is the sentinel receipt round in Result.InformedAt for
	// nodes that never received the message.
	Uninformed = phonecall.Uninformed
	// WorkersAuto selects GOMAXPROCS pooled workers (WithWorkers).
	WorkersAuto = phonecall.WorkersAuto
	// DefaultShards is the simulator's default partition count;
	// the shard count (not the worker count) determines the trace.
	DefaultShards = phonecall.DefaultShards
)

// ErrTransportClosed is the sentinel the daemon engine's Send returns
// after shutdown (test with errors.Is). Chaos drops are NOT errors —
// gossip tolerates loss, and the daemon degrades gracefully — so this is
// the only send failure a transport-engine run surfaces.
var ErrTransportClosed = transport.ErrClosed

// NewRand returns a deterministic PRNG seeded with seed. Split it to derive
// independent streams (topology generation vs. the run itself).
func NewRand(seed uint64) *Rand { return xrand.New(seed) }

// NewRegularGraph generates a simple random d-regular graph on n nodes —
// the paper's standard topology — from the given stream.
func NewRegularGraph(n, d int, rng *Rand) (*Graph, error) {
	return graph.RandomRegular(n, d, rng)
}

// Static wraps an immutable graph as a Topology.
func Static(g *Graph) Topology { return phonecall.NewStatic(g) }

// NewFourChoice returns the paper's headline protocol for an n-node
// d-regular network: four distinct dials per round on a phased
// push/pull schedule, O(log n) rounds and O(n·log log n) transmissions.
// The variant (Algorithm 1 or 2) is chosen from d as in internal/core;
// use that package directly for explicit variants and ablation options.
func NewFourChoice(n, d int) (Protocol, error) { return core.New(n, d) }
