package regcast

import (
	"fmt"

	"regcast/internal/graph"
	"regcast/internal/p2p/overlay"
	"regcast/internal/phonecall"
)

// TopologySpec describes how to construct a Topology instead of holding
// one — the declarative form that lets a single Scenario value stand for
// a whole family of networks. A Batch over a spec scenario builds one
// fresh topology per replication (so dynamic, churning topologies
// replicate safely: no state leaks between runs), and a Sweep can carry
// specs as axis values.
//
// Build must derive every bit of randomness it needs from rng — the
// convention is one rng.Split() per internal consumer, mirroring the
// master.Split() idiom of hand-written programs — and must not retain or
// advance rng beyond that. rep is the replication index (0 for a direct
// Runner.Run); specs whose construction is deterministic may ignore both.
// Build is called from batch pool workers and must be safe for concurrent
// calls with distinct rep values — in particular, a spec for a *dynamic*
// (Stepper) topology must build a fresh instance per call: returning one
// cached churning instance would leak state between replications and
// race under a concurrent pool, exactly what the batch layer's
// fixed-Stepper rejection exists to prevent.
type TopologySpec interface {
	Build(rep int, rng *Rand) (Topology, error)
}

// SpecNodeCount returns the node-id-space size spec would build, without
// building it, or -1 when the spec does not declare one. Every spec in
// this package answers; cmds use it to size output without paying for
// construction.
func SpecNodeCount(spec TopologySpec) int {
	if nc, ok := spec.(interface{ NodeCount() int }); ok {
		return nc.NodeCount()
	}
	return -1
}

// SpecImplicit reports whether spec builds an implicit (computed-
// adjacency) topology — one the engine drives through ImplicitViewer
// arithmetic instead of materialised CSR arrays. Specs without an
// Implicit method are dense.
func SpecImplicit(spec TopologySpec) bool {
	if im, ok := spec.(interface{ Implicit() bool }); ok {
		return im.Implicit()
	}
	return false
}

// fixedSpec wraps an existing Topology instance as a constant spec.
type fixedSpec struct{ topo Topology }

func (s fixedSpec) Build(int, *Rand) (Topology, error) { return s.topo, nil }

func (s fixedSpec) NodeCount() int { return s.topo.NumNodes() }

// FixedTopology wraps a concrete Topology instance as a constant
// TopologySpec: Build returns the same instance for every replication.
// NewScenario uses it implicitly, which is why the instance-based API is
// a special case of the spec-based one. Note that a fixed *dynamic*
// (Stepper) topology cannot be replicated in a Batch — churn would leak
// between runs — while a dynamic spec such as OverlaySpec can.
func FixedTopology(topo Topology) TopologySpec { return fixedSpec{topo: topo} }

// RegularGraphSpec builds a simple random d-regular graph on n nodes —
// the paper's standard topology — freshly per replication.
type RegularGraphSpec struct {
	N, D int
}

// Build implements TopologySpec.
func (s RegularGraphSpec) Build(rep int, rng *Rand) (Topology, error) {
	g, err := graph.RandomRegular(s.N, s.D, rng.Split())
	if err != nil {
		return nil, err
	}
	return Static(g), nil
}

// NodeCount implements the SpecNodeCount query.
func (s RegularGraphSpec) NodeCount() int { return s.N }

// ConfigurationModelSpec builds a random d-regular multigraph by the
// pairing model of the paper's §1.2; with Erased set, self-loops are
// dropped and parallel edges collapsed (degrees then at most D).
type ConfigurationModelSpec struct {
	N, D   int
	Erased bool
}

// Build implements TopologySpec.
func (s ConfigurationModelSpec) Build(rep int, rng *Rand) (Topology, error) {
	gen := graph.ConfigurationModel
	if s.Erased {
		gen = graph.ErasedConfigurationModel
	}
	g, err := gen(s.N, s.D, rng.Split())
	if err != nil {
		return nil, err
	}
	return Static(g), nil
}

// NodeCount implements the SpecNodeCount query.
func (s ConfigurationModelSpec) NodeCount() int { return s.N }

// GnpSpec builds an Erdős–Rényi random graph G(n, p) per replication.
type GnpSpec struct {
	N int
	P float64
}

// Build implements TopologySpec.
func (s GnpSpec) Build(rep int, rng *Rand) (Topology, error) {
	g, err := graph.Gnp(s.N, s.P, rng.Split())
	if err != nil {
		return nil, err
	}
	return Static(g), nil
}

// NodeCount implements the SpecNodeCount query.
func (s GnpSpec) NodeCount() int { return s.N }

// HypercubeSpec builds the Dim-dimensional hypercube on 2^Dim nodes. The
// construction is deterministic; replications differ only in their run
// randomness.
//
// By default the topology is implicit: adjacency is the bit-flip
// arithmetic NeighborAt(v, i) = v XOR 2^i and no neighbour array is
// built, which is what takes a single box past the materialised path's
// memory wall (Dim ≤ 26 dense, ≤ 30 implicit). Set Dense to materialise
// the CSR arrays instead. The two are interchangeable: the dense
// generator is defined as Materialize over the implicit family, so runs
// are bit-identical wherever both fit.
type HypercubeSpec struct {
	Dim   int
	Dense bool
}

// Build implements TopologySpec.
func (s HypercubeSpec) Build(int, *Rand) (Topology, error) {
	if s.Dense {
		g, err := graph.Hypercube(s.Dim)
		if err != nil {
			return nil, err
		}
		return Static(g), nil
	}
	h, err := graph.NewImplicitHypercube(s.Dim)
	if err != nil {
		return nil, err
	}
	return phonecall.NewImplicit(h), nil
}

// NodeCount implements the SpecNodeCount query.
func (s HypercubeSpec) NodeCount() int { return 1 << s.Dim }

// Implicit reports whether Build returns a computed-adjacency topology.
func (s HypercubeSpec) Implicit() bool { return !s.Dense }

// TorusSpec builds the Rows×Cols 2D torus (4-regular). The construction
// is deterministic; replications differ only in their run randomness.
// Implicit by default (neighbour order up, down, left, right per cell);
// set Dense to materialise — the dense generator is Materialize over the
// implicit family, so the two run bit-identically.
type TorusSpec struct {
	Rows, Cols int
	Dense      bool
}

// Build implements TopologySpec.
func (s TorusSpec) Build(int, *Rand) (Topology, error) {
	if s.Dense {
		g, err := graph.Torus(s.Rows, s.Cols)
		if err != nil {
			return nil, err
		}
		return Static(g), nil
	}
	t, err := graph.NewImplicitTorus(s.Rows, s.Cols)
	if err != nil {
		return nil, err
	}
	return phonecall.NewImplicit(t), nil
}

// NodeCount implements the SpecNodeCount query.
func (s TorusSpec) NodeCount() int { return s.Rows * s.Cols }

// Implicit reports whether Build returns a computed-adjacency topology.
func (s TorusSpec) Implicit() bool { return !s.Dense }

// GnpStreamSpec builds a seeded streaming G(n, p): a directed
// Erdős–Rényi graph whose rows are regenerated on demand by replaying a
// per-row PRNG stream (counter-mode seeding), storing one degree counter
// per node instead of the adjacency — 4 B/node where GnpSpec pays
// ~8(1+np) B/node. Each replication draws a fresh graph seed from rng,
// mirroring GnpSpec's fresh graph per replication. Set Dense to
// materialise the same graph into CSR arrays; for equal (rep, rng) the
// dense and implicit variants build identical adjacency, so runs are
// bit-identical.
//
// The digraph view matches the phone-call model: each caller dials from
// its own out-arc list. Unlike GnpSpec the underlying graph is directed
// (arcs (v,w) and (w,v) are independent), so the two specs are distinct
// families, not dense/implicit twins of one another.
type GnpStreamSpec struct {
	N     int
	P     float64
	Dense bool
}

// Build implements TopologySpec.
func (s GnpStreamSpec) Build(rep int, rng *Rand) (Topology, error) {
	f, err := graph.NewGnpStream(s.N, s.P, rng.Uint64())
	if err != nil {
		return nil, err
	}
	if s.Dense {
		g, err := graph.Materialize(f)
		if err != nil {
			return nil, err
		}
		return Static(g), nil
	}
	return phonecall.NewImplicit(f), nil
}

// NodeCount implements the SpecNodeCount query.
func (s GnpStreamSpec) NodeCount() int { return s.N }

// Implicit reports whether Build returns a computed-adjacency topology.
func (s GnpStreamSpec) Implicit() bool { return !s.Dense }

// RegularStreamSpec builds a seeded streaming d-regular multigraph
// (D even): the union of D/2 pseudorandom-permutation 2-factors, with
// O(1) arithmetic adjacency and zero per-node storage — the regenerable
// stand-in for RegularGraphSpec at scales where pairing-model
// construction (O(n·d) memory) is unaffordable. Each replication draws
// a fresh seed from rng. Set Dense to materialise the same multigraph;
// dense and implicit runs are bit-identical for equal (rep, rng).
//
// D = 2 is a single 2-factor — a disjoint union of cycles, almost never
// connected — so a broadcast on it stalls inside the source's cycle; use
// D ≥ 4 for anything that must reach every node.
type RegularStreamSpec struct {
	N, D  int
	Dense bool
}

// Build implements TopologySpec.
func (s RegularStreamSpec) Build(rep int, rng *Rand) (Topology, error) {
	f, err := graph.NewRegularStream(s.N, s.D, rng.Uint64())
	if err != nil {
		return nil, err
	}
	if s.Dense {
		g, err := graph.Materialize(f)
		if err != nil {
			return nil, err
		}
		return Static(g), nil
	}
	return phonecall.NewImplicit(f), nil
}

// NodeCount implements the SpecNodeCount query.
func (s RegularStreamSpec) NodeCount() int { return s.N }

// Implicit reports whether Build returns a computed-adjacency topology.
func (s RegularStreamSpec) Implicit() bool { return !s.Dense }

// OverlaySpec builds the paper's headline setting: a maintained d-regular
// peer-to-peer overlay, optionally churning between rounds. Each
// replication gets a fresh overlay of N alive peers of even degree D
// (seeded from an exact random d-regular graph) with Headroom spare id
// slots for joins (0 means N). When any churn parameter is set, a churner
// drives Binomial(alive, LeaveProb) departures and Binomial(alive,
// JoinProb) arrivals plus MixSteps switch-chain rewiring steps after
// every round, and the topology implements Stepper.
//
// The overlay maintains an epoch-stamped CSR view incrementally under
// Join/Leave/Mix, so runs on it — churning or not — index its arrays
// directly, bit-identical to reading it through its Topology methods (see
// DESIGN.md, "Topology specs and the epoch contract").
type OverlaySpec struct {
	N, D     int
	Headroom int

	JoinProb  float64
	LeaveProb float64
	MixSteps  int
}

// NodeCount implements the SpecNodeCount query: the id-space size is N
// alive peers plus the headroom slots (Headroom 0 means N).
func (s OverlaySpec) NodeCount() int {
	if s.Headroom == 0 {
		return 2 * s.N
	}
	return s.N + s.Headroom
}

// churns reports whether the spec attaches a churner.
func (s OverlaySpec) churns() bool {
	return s.JoinProb > 0 || s.LeaveProb > 0 || s.MixSteps > 0
}

// overlayTopology is a built OverlaySpec: the overlay plus its churner.
// It exposes the overlay's whole API (CheckInvariants, Snapshot, ...)
// through the embedded pointer, and phonecall's CSRViewer and
// DialBudgeter with it.
type overlayTopology struct {
	*overlay.Overlay
	ch *overlay.Churner
}

// Step implements Stepper.
func (o overlayTopology) Step(round int) []int { return o.ch.Step(round) }

var (
	_ Stepper             = overlayTopology{}
	_ phonecall.CSRViewer = overlayTopology{}
)

// Build implements TopologySpec: one rng.Split() seeds the overlay, a
// second the churner (drawn even when no churner is attached, so the
// stream shape does not depend on the churn parameters).
func (s OverlaySpec) Build(rep int, rng *Rand) (Topology, error) {
	headroom := s.Headroom
	if headroom == 0 {
		headroom = s.N
	}
	ovRNG, chRNG := rng.Split(), rng.Split()
	ov, err := overlay.New(s.N, s.D, headroom, ovRNG)
	if err != nil {
		return nil, fmt.Errorf("regcast: OverlaySpec: %w", err)
	}
	if !s.churns() {
		return ov, nil
	}
	ch, err := overlay.NewChurner(ov, s.JoinProb, s.LeaveProb, s.MixSteps, chRNG)
	if err != nil {
		return nil, fmt.Errorf("regcast: OverlaySpec: %w", err)
	}
	return overlayTopology{ov, ch}, nil
}
