package graph

import (
	"fmt"
	"math"

	"regcast/internal/xrand"
)

// ConfigurationModel generates a random d-regular multigraph by the pairing
// model of §1.2: every node gets d stubs, the nd stubs are paired uniformly
// at random, and each pair becomes an edge. Self-loops and parallel edges
// may occur (the paper analyses exactly this process); use RandomRegular
// for a simple graph.
//
// n*d must be even and fit in int32 (stub ids and CSR offsets are int32),
// and d < n is required for a meaningful topology.
//
// The build is direct-to-CSR: degrees are exactly d, so the offsets are
// known up front and each stub pair is written straight into the
// adjacency array in pair order — no intermediate edge list, which cuts
// allocation from 113 to 76 MB/op at n = 1M (pinned by
// BenchmarkConfigurationModelAlloc1M). The graph is element-identical to
// what routing the pairs through NewFromEdges produces
// (TestConfigurationModelMatchesEdgeListBuild).
func ConfigurationModel(n, d int, rng *xrand.Rand) (*Graph, error) {
	if err := checkRegularParams(n, d); err != nil {
		return nil, err
	}
	stubs := make([]int32, n*d)
	for i := range stubs {
		stubs[i] = int32(i / d)
	}
	rng.Shuffle(len(stubs), func(i, j int) { stubs[i], stubs[j] = stubs[j], stubs[i] })
	g := &Graph{offsets: make([]int32, n+1), adj: make([]int32, n*d)}
	// The fill cursors borrow the offsets array, as in RandomRegular: cursor
	// v runs from v·d to (v+1)·d, so taking d off each restores the offsets.
	for v := 0; v <= n; v++ {
		g.offsets[v] = int32(v * d)
	}
	cursor := g.offsets[:n]
	for i := 0; i < len(stubs); i += 2 {
		a, b := stubs[i], stubs[i+1]
		g.adj[cursor[a]] = b
		cursor[a]++
		g.adj[cursor[b]] = a
		cursor[b]++
	}
	for v := range cursor {
		cursor[v] -= int32(d)
	}
	return g, nil
}

// RandomRegular generates a uniform-ish random simple d-regular graph using
// the Steger–Wormald algorithm: stubs are paired one at a time, rejecting
// pairs that would create a self-loop or parallel edge; if the process gets
// stuck it restarts. For d = o(n^{1/3}) the resulting distribution is
// asymptotically uniform and restarts are rare.
//
// The build is direct-to-CSR and keeps no edge-keyed table: degrees are
// exactly d, so row v is adj[v·d : (v+1)·d], every accepted pair is
// appended to both endpoints' rows, and "would this be a parallel edge?"
// is a linear probe of the shorter of the two partial rows. The cost per
// try is therefore at most min(fill_u, fill_v) ≤ d contiguous int32
// compares — one cache line at d = 16 — against the uniformity regime's
// d = o(n^{1/3}); the repository never exceeds d = 64 outside tiny test
// graphs. The three work arrays (unmatched stubs, row cursors, adjacency)
// are allocated once and reused across restarts (StegerWormald, which the
// churn overlay calls on its own rows). A stub is stored as the id of the
// node that owns it — which stub of the node it is never matters — so a
// try divides nothing.
//
// A try is three dependent random reads (the stub, its node's cursor, the
// node's row), so one pair at a time the pass waits on memory. It works in
// batches instead (tryStegerWormald): swBatch pairs are drawn ahead as if
// each will be accepted, their reads are issued together, and only then
// are the pairs decided in order. The draws, the accept/reject decisions
// and the row order are those of the historical build (an edge set in a
// map, an edge list replayed through NewFromEdges), so the graph is
// element-identical and the caller's generator ends in the same stream
// position, restarts included (TestRandomRegularMatchesMapBuild).
func RandomRegular(n, d int, rng *xrand.Rand) (*Graph, error) {
	if err := checkRegularParams(n, d); err != nil {
		return nil, err
	}
	g := &Graph{offsets: make([]int32, n+1), adj: make([]int32, n*d)}
	// The pairing's row cursors borrow the offsets array, which is then
	// overwritten with the fixed stride.
	if err := StegerWormald(d, rng, make([]int32, n*d), g.offsets[:n], g.adj); err != nil {
		return nil, err
	}
	for v := 0; v <= n; v++ {
		g.offsets[v] = int32(v * d)
	}
	return g, nil
}

// StegerWormald is RandomRegular's pairing over caller-owned arrays: it
// pairs the stubs of n = len(fill) nodes of degree d, restarting when the
// process gets stuck, and writes row v into adj[v·d : (v+1)·d] (fill[v] = d
// on success). unmatched is scratch of n·d entries; adj must hold n·d. The
// draws, the rows and the generator's final position are RandomRegular's,
// so a caller with its own fixed-stride rows (the churn overlay) pairs into
// them in place. The caller validates n and d (see RandomRegular).
func StegerWormald(d int, rng *xrand.Rand, unmatched, fill, adj []int32) error {
	const maxRestarts = 1000
	for attempt := 0; attempt < maxRestarts; attempt++ {
		if tryStegerWormald(d, rng, unmatched, fill, adj) {
			return nil
		}
	}
	return fmt.Errorf("graph: Steger–Wormald pairing (n=%d, d=%d) failed after %d restarts", len(fill), d, maxRestarts)
}

// swBatch is how many pairs tryStegerWormald draws ahead: enough reads in
// flight to cover a memory round trip, few enough that the four index
// arrays stay on the stack and a rollback replays little.
const swBatch = 16

// swRollback, when set (tests only, export_test.go), sees every batch
// rollback: the index of the pair that ended the batch and whether it did
// so by drawing the same stub twice.
var swRollback func(pair int, sameStub bool)

// keepLoads consumes the batch's warm-up reads, which have no other use
// and would be deleted as dead code; one call per batch.
//
//go:noinline
func keepLoads(int32) {}

// tryStegerWormald performs one pass of the pairing-with-rejection process
// over n = len(fill) nodes, writing row v into adj[v·d : (v+1)·d] in
// acceptance order; fill[v] is how much of row v is written. It returns
// false if the process got stuck (only unsuitable pairs left); the caller
// may then call it again with the same arrays.
//
// Pairs are drawn a batch ahead with the moduli m, m−2, … they would see
// if every earlier pair of the batch were accepted, and the batch's reads
// are issued stage by stage — both stubs of every pair, then both cursors,
// then both rows — so the misses of a stage overlap instead of queueing
// behind each other. The values read are only a warm-up (an earlier pair
// of the batch may move a stub or grow a row); the pairs are then decided
// in order, on current state. A pair that is not accepted (the same stub
// twice, a self-loop, a parallel edge) is followed, in the one-at-a-time
// process, by a draw with an unchanged modulus, so the rest of the batch
// was drawn wrongly: the generator is reset to its batch-start value and
// advanced over the pairs decided so far — the same IntN calls from the
// same state, hence the same stream position — and the next batch starts
// there. Rollbacks are rare (about (d²−1)/4 + ln m per graph), and they
// make the draw sequence exactly the unbatched one.
func tryStegerWormald(d int, rng *xrand.Rand, unmatched, fill, adj []int32) bool {
	for v := range fill {
		fill[v] = 0
		stubs := unmatched[v*d : (v+1)*d]
		for s := range stubs {
			stubs[s] = int32(v)
		}
	}
	// A pairing step may need several retries; bound total retries to detect
	// the (rare) stuck state without an expensive suitability scan.
	retryBudget := 50*len(unmatched) + 1000
	var bi, bj [swBatch]int           // the batch's drawn stub positions
	var bu, bv, fu, fv [swBatch]int32 // warm-up: their nodes and row cursors
	for len(unmatched) > 0 {
		m := len(unmatched)
		start := *rng
		nb := min(swBatch, m/2)
		rng.FillShrinkingPairs(bi[:nb], bj[:nb], m)
		for p := 0; p < nb; p++ {
			bu[p], bv[p] = unmatched[bi[p]], unmatched[bj[p]]
		}
		for p := 0; p < nb; p++ {
			fu[p], fv[p] = fill[bu[p]], fill[bv[p]]
		}
		var warm int32
		for p := 0; p < nb; p++ {
			// Row start (the probe) and next free slot (the append); an
			// unmatched stub's row is not full, so the slot exists.
			ru, rv := int(bu[p])*d, int(bv[p])*d
			warm ^= adj[ru] ^ adj[ru+int(fu[p])] ^ adj[rv] ^ adj[rv+int(fv[p])]
		}
		keepLoads(warm)

		for p := 0; p < nb; p++ {
			i, j := bi[p], bj[p]
			u, v := unmatched[i], unmatched[j]
			if i == j || u == v || adjacent(d, fill, adj, u, v) {
				*rng = start
				for q := 0; q <= p; q++ {
					rng.IntN(m - 2*q)
					rng.IntN(m - 2*q)
				}
				if swRollback != nil {
					swRollback(p, i == j)
				}
				if i != j {
					retryBudget--
					if retryBudget <= 0 {
						return false
					}
				}
				break
			}
			adj[int(u)*d+int(fill[u])] = v
			fill[u]++
			adj[int(v)*d+int(fill[v])] = u
			fill[v]++
			// Remove both stubs (remove the larger index first).
			if i < j {
				i, j = j, i
			}
			unmatched[i] = unmatched[len(unmatched)-1]
			unmatched = unmatched[:len(unmatched)-1]
			unmatched[j] = unmatched[len(unmatched)-1]
			unmatched = unmatched[:len(unmatched)-1]
		}
	}
	return true
}

// adjacent reports whether the partial rows already hold the edge {u,v},
// probing the shorter of the two (the edge is in both).
func adjacent(d int, fill, adj []int32, u, v int32) bool {
	if fill[u] > fill[v] {
		u, v = v, u
	}
	row := adj[int(u)*d : int(u)*d+int(fill[u])]
	for _, w := range row {
		if w == v {
			return true
		}
	}
	return false
}

// ErasedConfigurationModel runs the pairing model and then erases
// self-loops and collapses parallel edges, producing a simple graph whose
// degrees are at most d (and typically d for all but O(1) nodes).
//
// The erasure is direct-to-CSR: each surviving edge is identified from
// its smaller endpoint's row with an O(d) scratch dedup (no global edge
// map, no edge list), degrees are counted in a first pass and the
// adjacency filled in a second, in the same edge order the historical
// map-based erasure produced — so the output graph is element-identical
// while peak allocation drops severalfold at n = 1M
// (BenchmarkErasedConfigurationModelAlloc1M).
func ErasedConfigurationModel(n, d int, rng *xrand.Rand) (*Graph, error) {
	g, err := ConfigurationModel(n, d, rng)
	if err != nil {
		return nil, err
	}
	// forEachKept calls f for every surviving edge (v,w), v < w, of node
	// v's row in first-occurrence order: self-loops skipped, lower
	// endpoints skipped (the edge is owned by its smaller endpoint), and
	// parallel copies deduplicated against the ≤ d entries already kept.
	kept := make([]int32, 0, d)
	forEachKept := func(v int, f func(w int32)) {
		kept = kept[:0]
		for _, w := range g.Neighbors(v) {
			if int(w) <= v {
				continue
			}
			dup := false
			for _, x := range kept {
				if x == w {
					dup = true
					break
				}
			}
			if dup {
				continue
			}
			kept = append(kept, w)
			f(w)
		}
	}
	deg := make([]int32, n)
	for v := 0; v < n; v++ {
		forEachKept(v, func(w int32) {
			deg[v]++
			deg[w]++
		})
	}
	out := &Graph{offsets: make([]int32, n+1)}
	for v := 0; v < n; v++ {
		out.offsets[v+1] = out.offsets[v] + deg[v]
	}
	out.adj = make([]int32, out.offsets[n])
	cursor := deg // reuse: overwritten with the fill cursors
	copy(cursor, out.offsets[:n])
	for v := 0; v < n; v++ {
		forEachKept(v, func(w int32) {
			out.adj[cursor[v]] = w
			cursor[v]++
			out.adj[cursor[w]] = int32(v)
			cursor[w]++
		})
	}
	return out, nil
}

// Gnp generates an Erdős–Rényi random graph G(n,p) using geometric skipping
// so the cost is proportional to the number of edges, not n².
//
// The build is direct-to-CSR in two passes over the same skip sequence: a
// throwaway copy of the generator counts degrees, then the caller's
// generator replays the identical stream while the edges are written
// straight into the adjacency array — no [2]int32 edge list, cutting
// allocation from 247 to 42 MB/op at mean degree 8, n = 1M
// (BenchmarkGnpAlloc1M). Because the replay
// consumes exactly the draws the single pass did, the caller's stream
// position and the produced graph are identical to the historical
// edge-list build.
func Gnp(n int, p float64, rng *xrand.Rand) (*Graph, error) {
	if n < 0 {
		return nil, fmt.Errorf("graph: Gnp n=%d", n)
	}
	if !(p >= 0 && p <= 1) { // NaN fails too
		return nil, fmt.Errorf("graph: Gnp p=%v out of [0,1]", p)
	}
	if p == 1 {
		// Complete graph, no randomness: row v is every other node in
		// ascending order (the order the lexicographic edge walk yields).
		g := &Graph{offsets: make([]int32, n+1), adj: make([]int32, n*(n-1))}
		for v := 0; v <= n; v++ {
			g.offsets[v] = int32(v * (n - 1))
		}
		for v := 0; v < n; v++ {
			row := g.adj[g.offsets[v]:g.offsets[v+1]]
			i := 0
			for w := 0; w < n; w++ {
				if w != v {
					row[i] = int32(w)
					i++
				}
			}
		}
		return g, nil
	}
	deg := make([]int32, n)
	edgeStubs := int32(0)
	if p > 0 {
		probe := *rng // value copy: replays the exact same stream
		gnpWalk(n, p, &probe, func(v, w int32) {
			deg[v]++
			deg[w]++
			edgeStubs += 2
		})
	}
	g := &Graph{offsets: make([]int32, n+1), adj: make([]int32, edgeStubs)}
	for v := 0; v < n; v++ {
		g.offsets[v+1] = g.offsets[v] + deg[v]
	}
	cursor := deg // reuse: overwritten with the fill cursors
	copy(cursor, g.offsets[:n])
	if p > 0 {
		gnpWalk(n, p, rng, func(v, w int32) {
			g.adj[cursor[v]] = w
			cursor[v]++
			g.adj[cursor[w]] = v
			cursor[w]++
		})
	}
	return g, nil
}

// gnpWalk iterates over the n*(n-1)/2 potential edges (v,w), v < w, in
// lexicographic order, skipping a Geometric(p) count between successive
// present edges, and calls f for each present edge. Both Gnp passes run
// this walk with generators in identical states, so the call sequences
// match.
func gnpWalk(n int, p float64, rng *xrand.Rand, f func(v, w int32)) {
	v, w := 0, 0 // current position; w <= v means row finished
	advance := func(steps int) bool {
		for steps > 0 && v < n {
			rowLeft := n - 1 - w
			if steps <= rowLeft {
				w += steps
				return true
			}
			steps -= rowLeft
			v++
			w = v
		}
		return v < n
	}
	if !advance(1 + rng.Geometric(p)) {
		return
	}
	for {
		f(int32(v), int32(w))
		if !advance(1 + rng.Geometric(p)) {
			return
		}
	}
}

// Ring returns the cycle graph C_n.
func Ring(n int) (*Graph, error) {
	if n < 3 {
		return nil, fmt.Errorf("graph: Ring needs n >= 3, got %d", n)
	}
	edges := make([][2]int32, n)
	for v := 0; v < n; v++ {
		edges[v] = [2]int32{int32(v), int32((v + 1) % n)}
	}
	return NewFromEdges(n, edges)
}

// Complete returns the complete graph K_n.
func Complete(n int) (*Graph, error) {
	if n < 1 {
		return nil, fmt.Errorf("graph: Complete needs n >= 1, got %d", n)
	}
	var edges [][2]int32
	for v := 0; v < n; v++ {
		for w := v + 1; w < n; w++ {
			edges = append(edges, [2]int32{int32(v), int32(w)})
		}
	}
	return NewFromEdges(n, edges)
}

// Hypercube returns the dim-dimensional hypercube on 2^dim nodes.
// It is defined as Materialize over the implicit family, so row order
// (ascending bit index) is identical between the two paths by
// construction. Dense materialisation needs 2^dim × dim adjacency
// slots to fit int32 offsets, capping dim at 26 here; the implicit
// family goes to dim 30.
func Hypercube(dim int) (*Graph, error) {
	h, err := NewImplicitHypercube(dim)
	if err != nil {
		return nil, err
	}
	return Materialize(h)
}

// Torus returns the rows×cols 2D torus (4-regular when rows, cols >= 3),
// materialised from the implicit family (row order: up, down, left,
// right per cell) so the two paths agree element-for-element.
func Torus(rows, cols int) (*Graph, error) {
	t, err := NewImplicitTorus(rows, cols)
	if err != nil {
		return nil, err
	}
	return Materialize(t)
}

// CartesianProduct returns the Cartesian product g □ h: nodes are pairs
// (u, x); (u,x)~(v,x) when u~v in g, and (u,x)~(u,y) when x~y in h. The
// paper's §5 counterexample is the product of a random regular graph with
// K5. Both factors must be simple.
func CartesianProduct(g, h *Graph) (*Graph, error) {
	if !g.IsSimple() || !h.IsSimple() {
		return nil, fmt.Errorf("graph: CartesianProduct requires simple factors")
	}
	ng, nh := g.NumNodes(), h.NumNodes()
	id := func(u, x int) int32 { return int32(u*nh + x) }
	var edges [][2]int32
	for u := 0; u < ng; u++ {
		for _, v := range g.Neighbors(u) {
			if int(v) > u {
				for x := 0; x < nh; x++ {
					edges = append(edges, [2]int32{id(u, x), id(int(v), x)})
				}
			}
		}
	}
	for x := 0; x < nh; x++ {
		for _, y := range h.Neighbors(x) {
			if int(y) > x {
				for u := 0; u < ng; u++ {
					edges = append(edges, [2]int32{id(u, x), id(u, int(y))})
				}
			}
		}
	}
	return NewFromEdges(ng*nh, edges)
}

// checkRegularParams validates a d-regular request before anything is
// allocated. Stub ids and CSR offsets are int32, so n·d stubs must fit.
func checkRegularParams(n, d int) error {
	if n <= 0 || d <= 0 {
		return fmt.Errorf("graph: invalid regular-graph parameters n=%d d=%d", n, d)
	}
	if d >= n {
		return fmt.Errorf("graph: degree d=%d must be < n=%d", d, n)
	}
	if int64(n)*int64(d) > math.MaxInt32 {
		return fmt.Errorf("graph: n*d = %d stubs exceed the int32 CSR index range (n=%d d=%d)", int64(n)*int64(d), n, d)
	}
	if n*d%2 != 0 {
		return fmt.Errorf("graph: n*d must be even, got n=%d d=%d", n, d)
	}
	return nil
}
