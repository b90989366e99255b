package graph

import (
	"fmt"
	"math"
	"math/bits"

	"regcast/internal/xrand"
)

// Implicit is a graph family whose adjacency is computed, not stored.
// Degree(v) and NeighborAt(v, i) for i in [0, Degree(v)) enumerate the
// exact multiset of neighbors the materialised CSR row would hold, in
// the same order — Materialize(im) and an Implicit im are interchangeable
// element-for-element. Implementations must be safe for concurrent use
// (the sharded engine calls NeighborAt from several goroutines) and
// must not draw from any shared randomness at query time: a family that
// needs random bits regenerates them deterministically per row.
//
// Node ids and neighbor ids fit in int32, matching the CSR contract.
type Implicit interface {
	NumNodes() int
	Degree(v int) int
	NeighborAt(v, i int) int32
}

// UniformDegree is an optional Implicit refinement for regular families:
// every node has the same degree. The broadcast engine reads it in place
// of a Degree call per row and charges the dial budget in O(1) with it.
type UniformDegree interface {
	UniformDegree() int
}

// Symmetric is an optional refinement of an Implicit family (and of
// *Graph): true declares that w appears in row v exactly as often as v in
// row w, so a node's row is also its in-neighbourhood. A family that does
// not declare it may be directed (GnpStream).
type Symmetric interface {
	Symmetric() bool
}

// Materialize builds the CSR graph whose row v is exactly
// NeighborAt(v, 0..Degree(v)) in order. It is the bridge that pins
// implicit families bit-identical to the dense path: the dense
// generators for hypercube and torus are defined as Materialize over
// the implicit family, so the two can never disagree. The graph is
// Symmetric iff the family declares it.
func Materialize(im Implicit) (*Graph, error) {
	n := im.NumNodes()
	var stubs int64
	for v := 0; v < n; v++ {
		stubs += int64(im.Degree(v))
	}
	if stubs > math.MaxInt32 {
		return nil, fmt.Errorf("graph: materialising %d nodes needs %d adjacency slots, exceeding int32 CSR offsets — use the implicit family directly", n, stubs)
	}
	sym, ok := im.(Symmetric)
	g := &Graph{
		offsets:    make([]int32, n+1),
		adj:        make([]int32, stubs),
		asymmetric: !ok || !sym.Symmetric(),
	}
	var off int32
	for v := 0; v < n; v++ {
		g.offsets[v] = off
		deg := im.Degree(v)
		for i := 0; i < deg; i++ {
			g.adj[off] = im.NeighborAt(v, i)
			off++
		}
	}
	g.offsets[n] = off
	return g, nil
}

// ImplicitHypercube is the dim-dimensional hypercube on n = 2^dim nodes
// with O(1) arithmetic adjacency: NeighborAt(v, i) flips bit i.
// dim is capped at 30 so node ids fit int32.
type ImplicitHypercube struct {
	dim int
}

// NewImplicitHypercube returns the implicit dim-dimensional hypercube.
func NewImplicitHypercube(dim int) (*ImplicitHypercube, error) {
	if dim < 1 || dim > 30 {
		return nil, fmt.Errorf("graph: hypercube dimension %d out of range [1,30]", dim)
	}
	return &ImplicitHypercube{dim: dim}, nil
}

func (h *ImplicitHypercube) NumNodes() int      { return 1 << h.dim }
func (h *ImplicitHypercube) Degree(int) int     { return h.dim }
func (h *ImplicitHypercube) UniformDegree() int { return h.dim }
func (h *ImplicitHypercube) Symmetric() bool    { return true }
func (h *ImplicitHypercube) NeighborAt(v, i int) int32 {
	return int32(v ^ (1 << i))
}

// ImplicitTorus is the rows×cols 2D torus (wrap-around grid) with O(1)
// arithmetic adjacency. Neighbor order per cell: up, down, left, right.
// Both sides must be ≥ 3 so the four neighbors are distinct.
type ImplicitTorus struct {
	rows, cols int
}

// NewImplicitTorus returns the implicit rows×cols torus.
func NewImplicitTorus(rows, cols int) (*ImplicitTorus, error) {
	if rows < 3 || cols < 3 {
		return nil, fmt.Errorf("graph: torus sides must be >= 3, got %dx%d", rows, cols)
	}
	if int64(rows)*int64(cols) > math.MaxInt32 {
		return nil, fmt.Errorf("graph: torus %dx%d exceeds int32 node ids", rows, cols)
	}
	return &ImplicitTorus{rows: rows, cols: cols}, nil
}

func (t *ImplicitTorus) NumNodes() int      { return t.rows * t.cols }
func (t *ImplicitTorus) Degree(int) int     { return 4 }
func (t *ImplicitTorus) UniformDegree() int { return 4 }
func (t *ImplicitTorus) Symmetric() bool    { return true }

func (t *ImplicitTorus) NeighborAt(v, i int) int32 {
	r, c := v/t.cols, v%t.cols
	switch i {
	case 0: // up
		r--
		if r < 0 {
			r = t.rows - 1
		}
	case 1: // down
		r++
		if r == t.rows {
			r = 0
		}
	case 2: // left
		c--
		if c < 0 {
			c = t.cols - 1
		}
	default: // right
		c++
		if c == t.cols {
			c = 0
		}
	}
	return int32(r*t.cols + c)
}

// GnpStream is a seeded directed G(n,p): each ordered pair (v, w), v≠w,
// is an arc independently with probability p, and row v is regenerable
// on demand by replaying a per-row PRNG stream (counter-mode seeding:
// rowSeed = mix(seed, v)). Rows are enumerated with geometric skipping,
// so NeighborAt costs O(Degree(v)) worst case and O(i) amortised when
// scanned in order; the fast-path samplers only ever index one slot per
// dial, which for p = Θ(polylog n / n) is O(log n) work per draw.
//
// The digraph view matches the phone-call model (each caller dials from
// its own arc list); Materialize yields the row-for-row identical CSR,
// which is not Symmetric: the family does not declare it.
// Degrees are precomputed at construction (4 B/node) — that is the only
// per-node storage.
type GnpStream struct {
	n    int
	p    float64
	seed uint64
	deg  []int32
}

// NewGnpStream builds the seeded streaming G(n,p). Construction costs
// one replay pass to count per-row degrees.
func NewGnpStream(n int, p float64, seed uint64) (*GnpStream, error) {
	if n < 2 || int64(n) > math.MaxInt32 {
		return nil, fmt.Errorf("graph: Gnp n %d out of range [2, MaxInt32]", n)
	}
	if p < 0 || p > 1 || math.IsNaN(p) {
		return nil, fmt.Errorf("graph: edge probability %v outside [0,1]", p)
	}
	g := &GnpStream{n: n, p: p, seed: seed, deg: make([]int32, n)}
	for v := 0; v < n; v++ {
		var r xrand.Rand
		r.Seed(g.rowSeed(v))
		d := 0
		g.rowWalk(&r, v, func(int32) { d++ })
		g.deg[v] = int32(d)
	}
	return g, nil
}

func (g *GnpStream) rowSeed(v int) uint64 {
	// SplitMix64-style mix of (seed, v): distinct rows get decorrelated
	// streams even for adjacent v or seed values.
	x := g.seed ^ (uint64(v)+1)*0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// rowWalk replays row v's arc stream, invoking emit for each neighbor
// in ascending order. The geometric-skip walk draws exactly the same
// variates every replay, so the row is a pure function of (seed, v).
func (g *GnpStream) rowWalk(r *xrand.Rand, v int, emit func(int32)) {
	if g.p <= 0 {
		return
	}
	// Positions 0..n-2 index the candidate set {0..n-1}\{v}.
	pos := -1
	for {
		pos += 1 + r.Geometric(g.p)
		if pos > g.n-2 {
			return
		}
		w := pos
		if w >= v {
			w++
		}
		emit(int32(w))
	}
}

func (g *GnpStream) NumNodes() int    { return g.n }
func (g *GnpStream) Degree(v int) int { return int(g.deg[v]) }

func (g *GnpStream) NeighborAt(v, i int) int32 {
	var r xrand.Rand
	r.Seed(g.rowSeed(v))
	var nb int32
	j := 0
	g.rowWalk(&r, v, func(w int32) {
		if j == i {
			nb = w
		}
		j++
	})
	if i < 0 || i >= j {
		panic(fmt.Sprintf("graph: GnpStream.NeighborAt(%d, %d) out of range [0,%d)", v, i, j))
	}
	return nb
}

// RegularStream is a seeded d-regular multigraph (d even) with O(1)
// regenerable adjacency and zero per-node storage: it is the union of
// d/2 pseudorandom permutation 2-factors. Permutation j is a four-round
// alternating Feistel network over exactly w = bits.Len(n-1) bits — a
// high half of ⌊w/2⌋ bits and a low half of ⌈w/2⌉, each round XORing
// one half with the keyed mix (feistelF) of the other — closed over
// [0,n) by cycle-walking: the domain 2^w is < 2n, so a call walks fewer
// than two times on average and exactly once at powers of two. Running
// the rounds backwards is the same network with the halves swapped and
// the keys reversed, so π_j and π_j⁻¹ share one branch-free body
// (NeighborAt) and differ only in their key row. Row v lists
// π_0(v), π_0⁻¹(v), π_1(v), π_1⁻¹(v), ... — the multiset is symmetric
// (w appears in row v exactly as often as v appears in row w), so the
// family is an undirected d-regular multigraph. Self-loops occur only
// at permutation fixed points (O(d) nodes in expectation).
//
// The round function is the one-multiply feistelF: one serial multiply
// a round is enough to pass TestRegularStreamLooksRandom (a uniform
// permutation's cycle count and fixed points, RandomRegular's spectral
// gap), so nothing heavier is paid for. TestRegularStreamGolden pins
// the exact rows, so a change to the network or to feistelF is a
// documented reseed of every regular-stream run.
type RegularStream struct {
	n, d   int
	loBits uint     // width of the low half; the high half has w-loBits bits
	hiMask uint64   // 1<<(w-loBits) - 1
	loMask uint64   // 1<<loBits - 1
	keys   []uint64 // 4 round keys per slot i: π_{i/2}'s schedule, reversed for odd i
}

// NewRegularStream builds the seeded streaming d-regular multigraph.
// d must be even, 2 ≤ d < n. One permutation 2-factor is a disjoint
// union of cycles, so d = 2 is almost never connected: use d ≥ 4 for
// anything that must reach every node.
func NewRegularStream(n, d int, seed uint64) (*RegularStream, error) {
	if n < 2 || int64(n) > math.MaxInt32 {
		return nil, fmt.Errorf("graph: regular-stream n %d out of range [2, MaxInt32]", n)
	}
	if d < 2 || d%2 != 0 || d >= n {
		return nil, fmt.Errorf("graph: regular-stream degree %d must be even and in [2, n)", d)
	}
	w := uint(bits.Len(uint(n - 1)))
	g := &RegularStream{
		n:      n,
		d:      d,
		loBits: w - w/2,
		hiMask: 1<<(w/2) - 1,
		loMask: 1<<(w-w/2) - 1,
		keys:   make([]uint64, 4*d),
	}
	s := seed
	next := func() uint64 {
		s += 0x9e3779b97f4a7c15
		x := s
		x ^= x >> 30
		x *= 0xbf58476d1ce4e5b9
		x ^= x >> 27
		x *= 0x94d049bb133111eb
		x ^= x >> 31
		return x
	}
	for j := 0; j < d/2; j++ {
		fwd, inv := g.keys[8*j:8*j+4], g.keys[8*j+4:8*j+8]
		for rd := range fwd {
			fwd[rd] = next()
			inv[3-rd] = fwd[rd]
		}
	}
	return g, nil
}

func (g *RegularStream) NumNodes() int      { return g.n }
func (g *RegularStream) Degree(int) int     { return g.d }
func (g *RegularStream) UniformDegree() int { return g.d }
func (g *RegularStream) Symmetric() bool    { return true }

// feistelF is the round function: one multiply spreads the keyed half
// upwards and the fold brings the well-mixed high word back down; the
// caller masks the result to the other half's width.
func feistelF(half, key uint64) uint64 {
	x := (half + key) * 0x9e3779b97f4a7c15
	return x ^ x>>32
}

// NeighborAt is π_{i/2}(v) for even i and π_{i/2}⁻¹(v) for odd i. An odd
// slot enters the network with the halves (and their masks) swapped —
// m is all ones exactly then — and reads the reversed key row, which
// together run the four rounds backwards. Cycle-walking terminates
// because a permutation's cycle through x re-enters [0,n) at least at
// x itself.
func (g *RegularStream) NeighborAt(v, i int) int32 {
	k := (*[4]uint64)(g.keys[4*i:])
	m := -uint64(i & 1)
	sw := (g.hiMask ^ g.loMask) & m
	pm, qm := g.hiMask^sw, g.loMask^sw
	x := uint64(v)
	for {
		hi, lo := x>>g.loBits, x&g.loMask
		t := (hi ^ lo) & m
		p, q := hi^t, lo^t
		p ^= feistelF(q, k[0]) & pm
		q ^= feistelF(p, k[1]) & qm
		p ^= feistelF(q, k[2]) & pm
		q ^= feistelF(p, k[3]) & qm
		t = (p ^ q) & m
		x = (p^t)<<g.loBits | (q ^ t)
		if x < uint64(g.n) {
			return int32(x)
		}
	}
}
