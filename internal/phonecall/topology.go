// Package phonecall implements the (modified) random phone call model of
// Karp et al. as used by Berenbrink, Elsässer & Friedetzky: in every
// synchronous round each node dials k distinct neighbours, establishing
// bidirectional channels; informed nodes may then push (transmit over the
// channels they dialled) and/or pull (transmit over the channels on which
// they were dialled). The engine counts message transmissions and opened
// channels, injects channel failures and message loss, and supports both a
// frozen graph and a churning overlay through the Topology interface.
//
// Protocols are strictly address-oblivious by construction: the only
// information a Protocol sees is the current round and the round at which a
// node first received the message — exactly the model the paper's lower
// bound (§2) is proved against.
package phonecall

import "regcast/internal/graph"

// Topology is the engine's view of the network. Static graphs and dynamic
// overlays both implement it. Node ids are dense in [0, NumNodes()); dead
// ids (departed or not-yet-joined peers) report Alive() == false and are
// skipped by the engine.
type Topology interface {
	// NumNodes returns the size of the id space (including dead ids).
	NumNodes() int
	// Degree returns the number of incident stubs of v.
	Degree(v int) int
	// Neighbor returns the i-th neighbour of v, 0 <= i < Degree(v).
	Neighbor(v, i int) int
	// Alive reports whether v currently participates in the network.
	Alive(v int) bool
}

// Stepper is an optional interface for topologies that evolve over time
// (churn). The engine invokes Step after every completed round.
//
// Budget contract: the engine caches the per-round dial budget
// (DialBudget) and recomputes it only after a Step that changed
// membership — one that reported joined nodes or moved the alive count.
// A Step that changes node degrees while keeping membership fixed must
// therefore be paired with a membership change to be re-budgeted;
// degree-preserving rewiring (the overlay's mix and leave re-pairing)
// needs no recomputation by construction. Every topology in this
// repository satisfies the contract, and the churn-overlay budget test
// pins it per round.
type Stepper interface {
	// Step advances the topology by one round. It returns the ids of nodes
	// that joined during this step (the engine resets their message state).
	// The slice is only valid until the next Step — an implementation may
	// reuse its buffer — so a caller that keeps the ids must copy them.
	Step(round int) (joined []int)
}

// CSRViewer is the optional interface for a topology that exposes its
// adjacency as epoch-stamped compressed-sparse-row arrays — the cheapest
// of the engine's views (fastpath.go). The engine reads any topology
// implementing it — frozen graphs and churning overlays alike — through
// the arrays, and re-fetches the view only when the epoch advances (it
// checks once after every Stepper.Step).
//
// Contract:
//
//   - The adjacency of an alive node v is adj[offsets[v]:offsets[v+1]],
//     and offsets[v+1]-offsets[v] == Degree(v) for every alive v.
//   - alive is a bitset over node ids (bit v of alive[v/64]); nil means
//     every id is alive. The bits must agree with Alive(v), and no bit
//     past NumNodes() may be set: the engine takes its alive count from
//     the bitset's population count at every fetch. The rows of dead ids
//     are unspecified and are never read — a fixed-stride implementation
//     may leave stale entries there.
//   - Adjacency entries may reference dead ids; the engine re-checks
//     target liveness against the bitset before it opens a channel.
//   - epoch changes whenever the contents of offsets, adj or alive
//     change. The slices may be reallocated between epochs, so consumers
//     must re-fetch all four values when the epoch moves; while the
//     epoch is unchanged the slices are stable and read-only.
type CSRViewer interface {
	Topology
	CSRView() (offsets, adj []int32, alive []uint64, epoch uint64)
}

// ImplicitNeighbors is computable adjacency: Degree and NeighborAt
// arithmetic instead of stored CSR arrays. NeighborAt(v, i) for
// i in [0, Degree(v)) must enumerate exactly the slice a materialised
// CSR row for v would hold, in the same order — that equivalence is
// what keeps the implicit view bit-identical to the dense one.
// Implementations must be goroutine-safe and must not consume any of
// the run's randomness (seeded families replay their own streams).
type ImplicitNeighbors interface {
	Degree(v int) int
	NeighborAt(v, i int) int32
}

// ImplicitViewer is the second viewer contract, for topologies whose
// adjacency is computed rather than stored. It mirrors CSRViewer exactly —
// same alive-bitset semantics, same epoch invalidation rules — with
// ImplicitNeighbors standing in for the offsets/adj arrays:
//
//   - nbrs.Degree(v) must equal Degree(v) for every alive v, and
//     nbrs.NeighborAt(v, i) must equal Neighbor(v, i).
//   - alive is a bitset over node ids (bit v of alive[v/64]); nil means
//     every id is alive. Rows of dead ids are never read.
//   - NeighborAt may return dead ids; the engine re-checks target
//     liveness against the bitset before it opens a channel.
//   - epoch changes whenever nbrs or alive change; consumers re-fetch
//     all three values when it moves.
//
// When a topology implements both viewer interfaces the engine prefers
// CSRView (indexing a slice beats recomputing arithmetic only when the
// arrays already exist — and if they exist, use them). A topology that
// implements neither is read through interfaceView.
type ImplicitViewer interface {
	Topology
	ImplicitView() (nbrs ImplicitNeighbors, alive []uint64, epoch uint64)
}

// interfaceView is the view of a topology that exposes none: its own
// Degree and Neighbor as ImplicitNeighbors, and liveness scanned from Alive
// into a bitset on every ImplicitView call (nil when every id is alive),
// under a fresh epoch each time. The engine fetches it once in NewEngine
// and again after every Step, so a topology may change anything in Step.
type interfaceView struct {
	Topology
	alive []uint64
	epoch uint64
}

// NeighborAt implements ImplicitNeighbors.
func (t *interfaceView) NeighborAt(v, i int) int32 { return int32(t.Neighbor(v, i)) }

// ImplicitView implements ImplicitViewer; the bitset's storage is reused,
// which is safe because every call also moves the epoch.
func (t *interfaceView) ImplicitView() (nbrs ImplicitNeighbors, alive []uint64, epoch uint64) {
	n := t.NumNodes()
	if len(t.alive) != (n+63)/64 {
		t.alive = make([]uint64, (n+63)/64)
	}
	clear(t.alive)
	all := true
	for v := 0; v < n; v++ {
		if t.Alive(v) {
			t.alive[uint(v)>>6] |= 1 << (uint(v) & 63)
		} else {
			all = false
		}
	}
	t.epoch++
	if all {
		return t, nil, t.epoch
	}
	return t, t.alive, t.epoch
}

// DialBudgeter is an optional interface for topologies that can compute
// the per-round dial budget without an O(n) interface scan — uniform-
// degree implicit families and the exactly d-regular churn overlay answer
// in O(1). The result must equal what the generic DialBudget scan would
// return.
type DialBudgeter interface {
	DialBudget(k int) int64
}

// DialBudget returns the per-round dial budget the model mandates on
// topo: every alive node dials min(k, degree) neighbours. All engines and
// the facade charge ChannelsDialed with this one formula.
func DialBudget(topo Topology, k int) int64 {
	if b, ok := topo.(DialBudgeter); ok {
		return b.DialBudget(k)
	}
	var total int64
	n := topo.NumNodes()
	for v := 0; v < n; v++ {
		if !topo.Alive(v) {
			continue
		}
		d := topo.Degree(v)
		if d > k {
			d = k
		}
		total += int64(d)
	}
	return total
}

// Static adapts an immutable graph.Graph to the Topology interface.
type Static struct {
	G *graph.Graph
}

var _ Topology = Static{}

// NewStatic wraps g as a Topology.
func NewStatic(g *graph.Graph) Static { return Static{G: g} }

// NumNodes implements Topology.
func (s Static) NumNodes() int { return s.G.NumNodes() }

// Degree implements Topology.
func (s Static) Degree(v int) int { return s.G.Degree(v) }

// Neighbor implements Topology.
func (s Static) Neighbor(v, i int) int { return s.G.Neighbor(v, i) }

// Alive implements Topology; every node of a static graph is alive.
func (s Static) Alive(int) bool { return true }

// Symmetric implements graph.Symmetric: the graph's own answer.
func (s Static) Symmetric() bool { return s.G.Symmetric() }

// CSRView implements CSRViewer: the graph's own CSR arrays, a nil alive
// bitset (every node is alive) and a constant epoch (the graph never
// changes).
func (s Static) CSRView() (offsets, adj []int32, alive []uint64, epoch uint64) {
	offsets, adj = s.G.CSR()
	return offsets, adj, nil, 0
}

// Implicit adapts an immutable graph.Implicit family to the Topology
// interface, exposing it to the engine through ImplicitViewer. It is
// the algebraic twin of Static: every node alive, constant epoch, no
// stored adjacency.
type Implicit struct {
	F graph.Implicit
}

var (
	_ Topology       = Implicit{}
	_ ImplicitViewer = Implicit{}
	_ DialBudgeter   = Implicit{}
)

// NewImplicit wraps an implicit graph family as a Topology.
func NewImplicit(f graph.Implicit) Implicit { return Implicit{F: f} }

// NumNodes implements Topology.
func (t Implicit) NumNodes() int { return t.F.NumNodes() }

// Degree implements Topology.
func (t Implicit) Degree(v int) int { return t.F.Degree(v) }

// Neighbor implements Topology.
func (t Implicit) Neighbor(v, i int) int { return int(t.F.NeighborAt(v, i)) }

// Alive implements Topology; every node of an implicit family is alive.
func (t Implicit) Alive(int) bool { return true }

// Symmetric implements graph.Symmetric: the family's own declaration.
func (t Implicit) Symmetric() bool {
	s, ok := t.F.(graph.Symmetric)
	return ok && s.Symmetric()
}

// ImplicitView implements ImplicitViewer: the family's own arithmetic,
// a nil alive bitset and a constant epoch.
func (t Implicit) ImplicitView() (nbrs ImplicitNeighbors, alive []uint64, epoch uint64) {
	return t.F, nil, 0
}

// DialBudget implements DialBudgeter: uniform-degree families answer in
// O(1), degree-array families with one slice scan, and anything else
// falls back to the arithmetic degree scan (no interface dispatch).
func (t Implicit) DialBudget(k int) int64 {
	n := t.F.NumNodes()
	switch f := t.F.(type) {
	case graph.UniformDegree:
		d := f.UniformDegree()
		if d > k {
			d = k
		}
		return int64(n) * int64(d)
	case graph.DegreeArray:
		var total int64
		for _, d := range f.Degrees() {
			if int(d) > k {
				total += int64(k)
			} else {
				total += int64(d)
			}
		}
		return total
	default:
		var total int64
		for v := 0; v < n; v++ {
			d := t.F.Degree(v)
			if d > k {
				d = k
			}
			total += int64(d)
		}
		return total
	}
}
