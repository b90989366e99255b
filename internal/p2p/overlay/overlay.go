// Package overlay implements the dynamic d-regular peer-to-peer topology
// that motivates the paper: a random-regular-like overlay maintained under
// churn by local edge operations. It starts as a uniform-ish random simple
// d-regular graph, paired straight into its own rows (New). Joins splice
// the new peer into d/2 random edges (preserving exact d-regularity),
// leaves re-pair the departing peer's neighbours, and a switch-chain Mix
// step (random 2-edge swaps, as in Cooper–Dyer–Greenhill) keeps the
// topology close to a uniform random d-regular (multi)graph.
//
// Overlay implements phonecall.Topology, and Churner implements
// phonecall.Stepper, so the broadcast engine runs on a churning overlay
// unchanged (experiment E13).
package overlay

import (
	"fmt"
	"math"

	"regcast/internal/graph"
	"regcast/internal/phonecall"
	"regcast/internal/xrand"
)

// Overlay is a mutable d-regular multigraph with an alive/dead node set.
// Node ids are stable; departed ids are recycled by later joins.
//
// The adjacency is stored in compressed-sparse-row form from the start:
// every id owns a fixed-stride row of d slots in one flat stub array, and
// a flat degree array says how many of them are in use (d for an alive
// peer between operations, 0 for a dead id) — no per-row slice header, so
// each local edge operation is index arithmetic on two flat arrays and
// updates the CSR view in place. That is what makes the overlay a
// phonecall.CSRViewer — the broadcast engine's shard pass and word kernel
// run directly on these arrays (a fixed-stride view: row v starts at v·d,
// so no offsets array is kept), with the alive bitset (the overlay's only
// liveness record) and an epoch counter that tells the engine when
// anything changed (see CSRView). Exact d-regularity of the alive peers
// (CheckInvariants) is what the fixed stride promises, and it lets the
// engine charge the dial budget from the view in O(1).
//
// The ids Join may take are a list threaded through the dead rows, which
// nothing else reads: freeHead is the last departed id, slot 0 of each
// departed id's row links to the one that left before it, and fresh is the
// next id never used. Join pops departed ids last-in first-out, then
// fresh, fresh+1, …, so the list costs no array of its own.
type Overlay struct {
	d         int
	stubs     []int32  // flat (cap × d) backing; row v is stubs[v*d : v*d+deg[v]]
	deg       []int32  // slots of row v in use
	dangling  []int32  // Leave's stub scratch (capacity d), reused across calls
	aliveBits []uint64 // bit v set iff v is alive: the one liveness record
	aliveCnt  int
	epoch     uint64 // bumped by every mutating operation
	rng       *xrand.Rand
	freeHead  int32 // the last departed id not yet rejoined, or -1
	fresh     int32 // the next id never used; ids from here on are free
	watchers  []MembershipFunc
}

// MembershipFunc receives membership events: joined reports whether id
// just joined (true) or left (false), after the overlay has applied the
// change.
type MembershipFunc func(id int, joined bool)

var _ phonecall.Topology = (*Overlay)(nil)
var _ phonecall.CSRViewer = (*Overlay)(nil)

// New builds an overlay of n alive peers of even degree d, with headroom
// spare slots for future joins, seeded from an exact random d-regular
// graph: graph.StegerWormald pairs the stubs straight into the first n
// fixed-stride rows, with deg as the fill cursors, so the rows and the
// generator's final position are graph.RandomRegular(n, d, rng)'s and no
// Graph is built. When headroom >= n the dead headroom rows serve as the
// pairing's unmatched-stub scratch; otherwise the scratch is allocated.
func New(n, d, headroom int, rng *xrand.Rand) (*Overlay, error) {
	if d%2 != 0 {
		return nil, fmt.Errorf("overlay: degree %d must be even (joins splice d/2 edges)", d)
	}
	if d < 4 {
		return nil, fmt.Errorf("overlay: degree %d too small", d)
	}
	if headroom < 0 {
		return nil, fmt.Errorf("overlay: negative headroom %d", headroom)
	}
	if n <= d {
		return nil, fmt.Errorf("overlay: need n > d, got n=%d d=%d", n, d)
	}
	capacity := n + headroom
	if n > math.MaxInt32 || headroom > math.MaxInt32 || int64(capacity)*int64(d) > math.MaxInt32 {
		return nil, fmt.Errorf("overlay: capacity %d × degree %d overflows the CSR id space", capacity, d)
	}
	o := &Overlay{
		d:         d,
		stubs:     make([]int32, capacity*d),
		deg:       make([]int32, capacity),
		dangling:  make([]int32, 0, d),
		aliveBits: make([]uint64, (capacity+63)/64),
		rng:       rng,
		freeHead:  -1,
		fresh:     int32(n),
	}
	unmatched := o.stubs[n*d:]
	if headroom < n {
		unmatched = make([]int32, n*d)
	}
	if err := graph.StegerWormald(d, rng, unmatched[:n*d], o.deg[:n], o.stubs[:n*d]); err != nil {
		return nil, fmt.Errorf("overlay: seeding topology: %w", err)
	}
	for v := 0; v < n; v++ {
		o.setAlive(v, true)
	}
	o.epoch++
	return o, nil
}

// setAlive flips v's bit and the alive counter together.
func (o *Overlay) setAlive(v int, alive bool) {
	if o.Alive(v) == alive {
		return
	}
	if alive {
		o.aliveBits[uint(v)>>6] |= 1 << (uint(v) & 63)
		o.aliveCnt++
	} else {
		o.aliveBits[uint(v)>>6] &^= 1 << (uint(v) & 63)
		o.aliveCnt--
	}
}

// CSRView implements phonecall.CSRViewer with nil offsets: a fixed-stride
// view, row v being stubs[v·d : (v+1)·d]. The returned slices are the
// overlay's live storage: every Join/Leave/Mix updates them in place and
// bumps the epoch, so a consumer that re-fetches on epoch change always
// reads the current topology. Rows of dead ids hold stale stubs and the
// free-id links and must not be read (their alive bit is clear); rows of
// alive ids are exactly d slots, matching Degree.
func (o *Overlay) CSRView() ([]int32, []int32, []uint64, uint64) {
	return nil, o.stubs, o.aliveBits, o.epoch
}

// NumNodes implements phonecall.Topology (id-space size incl. dead slots).
func (o *Overlay) NumNodes() int { return len(o.deg) }

// row returns v's adjacency: the slots of its fixed-stride row in use.
func (o *Overlay) row(v int) []int32 { return o.stubs[v*o.d : v*o.d+int(o.deg[v])] }

// AliveCount returns the number of participating peers.
func (o *Overlay) AliveCount() int { return o.aliveCnt }

// Degree implements phonecall.Topology.
func (o *Overlay) Degree(v int) int { return int(o.deg[v]) }

// Neighbor implements phonecall.Topology.
func (o *Overlay) Neighbor(v, i int) int { return int(o.row(v)[i]) }

// Alive implements phonecall.Topology.
func (o *Overlay) Alive(v int) bool { return o.aliveBits[uint(v)>>6]&(1<<(uint(v)&63)) != 0 }

// OnMembership subscribes fn to join/leave events. Callbacks fire
// synchronously inside Join and Leave, after the topology mutation is
// complete; they must not mutate the overlay re-entrantly.
func (o *Overlay) OnMembership(fn MembershipFunc) {
	o.watchers = append(o.watchers, fn)
}

// notify fans one membership event out to the subscribers.
func (o *Overlay) notify(id int, joined bool) {
	for _, fn := range o.watchers {
		fn(id, joined)
	}
}

// Join splices a new peer into the overlay and returns its id. The new
// peer takes over d/2 randomly chosen existing edges (u,w), replacing each
// with the pair (u,new),(w,new); all degrees stay exactly d.
func (o *Overlay) Join() (int, error) {
	if o.freeHead < 0 && int(o.fresh) == len(o.deg) {
		return -1, fmt.Errorf("overlay: no free slots (capacity %d)", len(o.deg))
	}
	if o.aliveCnt <= o.d {
		return -1, fmt.Errorf("overlay: too few peers (%d) to splice a join", o.aliveCnt)
	}
	var id int
	if o.freeHead >= 0 {
		id = int(o.freeHead)
		o.freeHead = o.stubs[id*o.d]
	} else {
		id = int(o.fresh)
		o.fresh++
	}
	o.epoch++

	for i := 0; i < o.d/2; i++ {
		u, w := o.randomEdge()
		if u == id || int(w) == id {
			// Don't splice an edge created by an earlier iteration of this
			// very join: that would give the newcomer a self-loop.
			i--
			continue
		}
		o.removeEdge(u, w)
		o.addEdge(u, int32(id))
		o.addEdge(int(w), int32(id))
	}
	o.setAlive(id, true)
	o.notify(id, true)
	return id, nil
}

// Leave removes peer v. Its d dangling stubs are re-paired at random:
// neighbours (n1,n2), (n3,n4), ... get joined directly, so every remaining
// degree is preserved (self-loops can arise and are represented as two
// stub entries, exactly as in the configuration model).
func (o *Overlay) Leave(v int) error {
	if v < 0 || v >= len(o.deg) || !o.Alive(v) {
		return fmt.Errorf("overlay: Leave(%d): not an alive peer", v)
	}
	if o.aliveCnt <= o.d+1 {
		return fmt.Errorf("overlay: refusing to shrink below d+1 peers")
	}
	o.epoch++
	// Collect dangling stubs, dropping v's own self-loops entirely.
	dangling := o.dangling[:0]
	for _, w := range o.row(v) {
		if int(w) != v {
			dangling = append(dangling, w)
		}
	}
	// Remove v from each neighbour's list (one instance per stub).
	for _, w := range dangling {
		o.removeDirected(int(w), int32(v))
	}
	o.deg[v] = 0
	o.setAlive(v, false)
	o.stubs[v*o.d] = o.freeHead // v's dead row links the free list
	o.freeHead = int32(v)

	// Re-pair the dangling stubs uniformly at random: Fisher–Yates, the
	// IntN(i+1) calls of rng.Shuffle without its closure.
	for i := len(dangling) - 1; i > 0; i-- {
		j := o.rng.IntN(i + 1)
		dangling[i], dangling[j] = dangling[j], dangling[i]
	}
	for i := 0; i+1 < len(dangling); i += 2 {
		o.addEdge(int(dangling[i]), dangling[i+1])
	}
	o.notify(v, false)
	return nil
}

// Mix performs the given number of switch-chain steps: pick two random
// edges (a,b), (c,e) and replace them with (a,c), (b,e) unless that would
// create a self-loop. This is the degree-preserving Markov chain used for
// overlay maintenance in the P2P literature the paper cites.
func (o *Overlay) Mix(steps int) {
	if steps > 0 {
		o.epoch++
	}
	for s := 0; s < steps; s++ {
		a, b := o.randomEdge()
		c, e := o.randomEdge()
		if a == c || int32(a) == e || b == int32(c) || b == e {
			continue
		}
		o.removeEdge(a, b)
		o.removeEdge(c, e)
		o.addEdge(a, int32(c))
		o.addEdge(int(b), e)
	}
}

// CheckInvariants verifies structural consistency (symmetry, exact degree
// d for alive peers, empty adjacency for dead slots). It is O(n·d) and
// intended for tests and debugging.
func (o *Overlay) CheckInvariants() error {
	counts := make(map[[2]int32]int)
	for v := range o.deg {
		if !o.Alive(v) {
			if o.deg[v] != 0 {
				return fmt.Errorf("overlay: dead peer %d has %d stubs", v, o.deg[v])
			}
			continue
		}
		if int(o.deg[v]) != o.d {
			return fmt.Errorf("overlay: peer %d has degree %d, want %d", v, o.deg[v], o.d)
		}
		for _, w := range o.row(v) {
			if !o.Alive(int(w)) {
				return fmt.Errorf("overlay: peer %d adjacent to dead peer %d", v, w)
			}
			a, b := int32(v), w
			if a > b {
				a, b = b, a
			}
			counts[[2]int32{a, b}]++
		}
	}
	for e, c := range counts {
		if c%2 != 0 {
			return fmt.Errorf("overlay: asymmetric edge %v (stub count %d)", e, c)
		}
	}
	return nil
}

// randomEdge returns a uniformly random edge as an ordered stub (u,w).
// Uniformity follows from regularity: pick an alive peer uniformly, then
// one of its stubs uniformly.
func (o *Overlay) randomEdge() (int, int32) {
	for {
		v := o.rng.IntN(len(o.deg))
		if !o.Alive(v) || o.deg[v] == 0 {
			continue
		}
		return v, o.stubs[v*o.d+o.rng.IntN(int(o.deg[v]))]
	}
}

// addEdge appends the two stub entries of edge (u,w). A self-loop (u==w)
// appends two entries at u. Rows are fixed-stride slots of one flat
// array, so an append past capacity d would silently overwrite the next
// peer's row — the guard turns that (impossible by the degree invariant)
// state into a loud failure instead.
func (o *Overlay) addEdge(u int, w int32) {
	overflow := int(o.deg[u]) >= o.d || int(o.deg[w]) >= o.d
	if u == int(w) {
		overflow = int(o.deg[u])+2 > o.d
	}
	if overflow {
		panic(fmt.Sprintf("overlay: addEdge(%d,%d) would exceed degree %d", u, w, o.d))
	}
	o.stubs[u*o.d+int(o.deg[u])] = w
	o.deg[u]++
	o.stubs[int(w)*o.d+int(o.deg[w])] = int32(u)
	o.deg[w]++
}

// removeEdge deletes one instance of edge (u,w): one stub at each side
// (two stubs at u for a self-loop).
func (o *Overlay) removeEdge(u int, w int32) {
	o.removeDirected(u, w)
	o.removeDirected(int(w), int32(u))
}

// removeDirected deletes one occurrence of w from u's list: the first,
// found by a scan of the whole row with no early exit, so the compiler
// keeps the match in a conditional move rather than a mispredicted branch.
func (o *Overlay) removeDirected(u int, w int32) {
	row := o.row(u)
	at := len(row)
	for i := len(row) - 1; i >= 0; i-- {
		if row[i] == w {
			at = i
		}
	}
	if at == len(row) {
		panic(fmt.Sprintf("overlay: removeDirected(%d,%d): stub not found", u, w))
	}
	row[at] = row[len(row)-1]
	o.deg[u]--
}

// Churner drives continuous membership change: every round it performs a
// Binomial(aliveCount, LeaveProb) number of departures and
// Binomial(aliveCount, JoinProb) arrivals, then MixSteps switch-chain
// steps. It implements phonecall.Stepper.
type Churner struct {
	Overlay   *Overlay
	JoinProb  float64
	LeaveProb float64
	MixSteps  int
	rng       *xrand.Rand
	joined    []int // Step's result buffer, reused across calls
}

var _ phonecall.Stepper = (*Churner)(nil)

// NewChurner validates parameters and returns a stepper.
func NewChurner(o *Overlay, joinProb, leaveProb float64, mixSteps int, rng *xrand.Rand) (*Churner, error) {
	if o == nil || rng == nil {
		return nil, fmt.Errorf("overlay: NewChurner requires overlay and rng")
	}
	if !(joinProb >= 0 && joinProb <= 1) || !(leaveProb >= 0 && leaveProb <= 1) { // NaN fails too
		return nil, fmt.Errorf("overlay: churn probabilities out of [0,1]: join=%v leave=%v", joinProb, leaveProb)
	}
	if mixSteps < 0 {
		return nil, fmt.Errorf("overlay: negative mix steps %d", mixSteps)
	}
	return &Churner{Overlay: o, JoinProb: joinProb, LeaveProb: leaveProb, MixSteps: mixSteps, rng: rng}, nil
}

// Step implements phonecall.Stepper. The returned slice is the churner's
// own buffer: it is valid until the next Step, so a caller that keeps the
// ids longer must copy them.
func (c *Churner) Step(round int) []int {
	o := c.Overlay
	leaves := c.rng.Binomial(o.AliveCount(), c.LeaveProb)
	for i := 0; i < leaves; i++ {
		v := c.randomAlive()
		if v < 0 {
			break
		}
		// The overlay refuses to shrink below d+1 peers; that departure is
		// skipped.
		_ = o.Leave(v)
	}
	joins := c.rng.Binomial(o.AliveCount(), c.JoinProb)
	joined := c.joined[:0]
	for i := 0; i < joins; i++ {
		id, err := o.Join()
		if err != nil {
			continue // no free slot, or too few peers to splice into
		}
		joined = append(joined, id)
	}
	if c.MixSteps > 0 {
		o.Mix(c.MixSteps)
	}
	c.joined = joined
	return joined
}

// randomAlive picks a uniformly random alive peer (-1 if none).
func (c *Churner) randomAlive() int {
	o := c.Overlay
	if o.AliveCount() == 0 {
		return -1
	}
	for tries := 0; tries < 16*len(o.deg); tries++ {
		v := c.rng.IntN(len(o.deg))
		if o.Alive(v) {
			return v
		}
	}
	return -1
}
