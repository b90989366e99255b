// Package graph provides the undirected-graph substrate for the broadcast
// simulator: a compact immutable CSR representation, the configuration
// (pairing) model generator for random d-regular graphs exactly as defined
// in §1.2 of Berenbrink, Elsässer & Friedetzky, reference topologies used in
// tests and comparisons, and the structural queries (connectivity, edge
// cuts, degree census) the analysis relies on.
package graph

import "fmt"

// Graph is an immutable undirected (multi)graph in compressed sparse row
// form. Self-loops and parallel edges are representable: a self-loop (v,v)
// contributes two entries to v's adjacency list (both endpoints of the
// edge), matching the stub semantics of the configuration model.
type Graph struct {
	offsets []int32 // len n+1; adjacency of v is adj[offsets[v]:offsets[v+1]]
	adj     []int32
}

// NewFromAdjacency builds a Graph from adjacency lists. The lists must be
// symmetric: an edge (v,w) must appear in both adj[v] and adj[w] (twice in
// adj[v] if v == w). Symmetry is validated.
func NewFromAdjacency(adj [][]int32) (*Graph, error) {
	n := len(adj)
	g := &Graph{offsets: make([]int32, n+1)}
	total := 0
	for v, nb := range adj {
		total += len(nb)
		g.offsets[v+1] = g.offsets[v] + int32(len(nb))
	}
	g.adj = make([]int32, 0, total)
	for v, nb := range adj {
		for _, w := range nb {
			if w < 0 || int(w) >= n {
				return nil, fmt.Errorf("graph: node %d has out-of-range neighbour %d", v, w)
			}
			g.adj = append(g.adj, w)
		}
	}
	if err := g.checkSymmetry(); err != nil {
		return nil, err
	}
	return g, nil
}

// NewFromEdges builds a Graph on n nodes from an undirected edge list.
// Each pair contributes one entry to both endpoints' adjacency lists
// (two entries to the list of v for a self-loop (v,v)).
func NewFromEdges(n int, edges [][2]int32) (*Graph, error) {
	deg := make([]int32, n)
	for _, e := range edges {
		for _, v := range e {
			if v < 0 || int(v) >= n {
				return nil, fmt.Errorf("graph: edge endpoint %d out of range [0,%d)", v, n)
			}
		}
		deg[e[0]]++
		deg[e[1]]++
	}
	g := &Graph{offsets: make([]int32, n+1)}
	for v := 0; v < n; v++ {
		g.offsets[v+1] = g.offsets[v] + deg[v]
	}
	g.adj = make([]int32, g.offsets[n])
	cursor := make([]int32, n)
	copy(cursor, g.offsets[:n])
	for _, e := range edges {
		g.adj[cursor[e[0]]] = e[1]
		cursor[e[0]]++
		g.adj[cursor[e[1]]] = e[0]
		cursor[e[1]]++
	}
	return g, nil
}

// checkSymmetry verifies that every (v,w) entry has a matching (w,v) entry
// and that self-loops contribute an even number of stubs. It transposes the
// adjacency by counting sort — in[inOff[w]:inOff[w+1]] lists the rows that
// name w — and compares each row with its transpose as multisets through
// one n-entry count scratch, so the cost is linear in the entries.
func (g *Graph) checkSymmetry() error {
	n := g.NumNodes()
	inOff := make([]int32, n+1)
	for _, w := range g.adj {
		inOff[w+1]++
	}
	for w := 0; w < n; w++ {
		inOff[w+1] += inOff[w]
	}
	in := make([]int32, len(g.adj))
	count := make([]int32, n) // doubles as the fill cursor of the transpose
	for v := 0; v < n; v++ {
		for _, w := range g.Neighbors(v) {
			in[inOff[w]+count[w]] = int32(v)
			count[w]++
		}
	}
	for i := range count {
		count[i] = 0
	}
	for v := 0; v < n; v++ {
		out, back := g.Neighbors(v), in[inOff[v]:inOff[v+1]]
		for _, w := range out {
			count[w]++
		}
		if c := count[v]; c%2 != 0 {
			return fmt.Errorf("graph: self-loop at %d has odd stub count %d", v, c)
		}
		for _, w := range back {
			count[w]--
		}
		// Every unbalanced neighbour is in one of the two lists; balanced
		// rows leave the scratch all zero for the next node.
		for _, list := range [2][]int32{out, back} {
			for _, w := range list {
				if count[w] != 0 {
					a, b := int32(v), w
					if a > b {
						a, b = b, a
					}
					return fmt.Errorf("graph: asymmetric edge (%d,%d)", a, b)
				}
			}
		}
	}
	return nil
}

// NumNodes returns the number of vertices.
func (g *Graph) NumNodes() int { return len(g.offsets) - 1 }

// NumEdges returns the number of undirected edges (self-loops count once).
func (g *Graph) NumEdges() int { return len(g.adj) / 2 }

// Degree returns the degree of v (a self-loop contributes 2).
func (g *Graph) Degree(v int) int {
	return int(g.offsets[v+1] - g.offsets[v])
}

// Neighbor returns the i-th neighbour of v (0 <= i < Degree(v)).
func (g *Graph) Neighbor(v, i int) int {
	return int(g.adj[g.offsets[v]+int32(i)])
}

// Neighbors returns v's adjacency slice. The caller must not modify it.
func (g *Graph) Neighbors(v int) []int32 {
	return g.adj[g.offsets[v]:g.offsets[v+1]]
}

// CSR exposes the graph's raw compressed-sparse-row arrays: the adjacency
// of v is adj[offsets[v]:offsets[v+1]]. This is the zero-interface view
// hot loops (the phone-call fast path) index directly instead of going
// through Degree/Neighbor calls. The caller must not modify either slice.
func (g *Graph) CSR() (offsets, adj []int32) {
	return g.offsets, g.adj
}

// MinDegree returns the smallest degree, or 0 for an empty graph.
func (g *Graph) MinDegree() int {
	n := g.NumNodes()
	if n == 0 {
		return 0
	}
	m := g.Degree(0)
	for v := 1; v < n; v++ {
		if d := g.Degree(v); d < m {
			m = d
		}
	}
	return m
}

// MaxDegree returns the largest degree, or 0 for an empty graph.
func (g *Graph) MaxDegree() int {
	m := 0
	for v := 0; v < g.NumNodes(); v++ {
		if d := g.Degree(v); d > m {
			m = d
		}
	}
	return m
}

// IsRegular reports whether all nodes have degree d.
func (g *Graph) IsRegular(d int) bool {
	for v := 0; v < g.NumNodes(); v++ {
		if g.Degree(v) != d {
			return false
		}
	}
	return true
}

// rowCounts are a graph's self-loop edges and its surplus parallel edges,
// k-1 for every pair {v,w}, v != w, joined by k >= 2 edges. rowCensus takes
// both in one walk over the rows: while row v is read a bit per node says
// "already named", so a further copy of w is surplus, and a second walk of
// the row clears what it set — n/8 bytes that stay cached where an n-entry
// stamp array does not. Either count is taken at both endpoints, so halved.
type rowCounts struct{ loops, surplus int }

func (g *Graph) rowCensus() (c rowCounts) {
	seen := make([]uint64, (g.NumNodes()+63)/64)
	for v := 0; v < g.NumNodes(); v++ {
		row := g.Neighbors(v)
		for _, w := range row {
			if int(w) == v {
				c.loops++
			} else if bit := uint64(1) << (uint(w) & 63); seen[w>>6]&bit != 0 {
				c.surplus++
			} else {
				seen[w>>6] |= bit
			}
		}
		for _, w := range row {
			seen[w>>6] &^= 1 << (uint(w) & 63)
		}
	}
	return rowCounts{c.loops / 2, c.surplus / 2}
}

// SelfLoopCount returns the number of self-loop edges.
func (g *Graph) SelfLoopCount() int { return g.rowCensus().loops }

// MultiEdgeCount returns the number of surplus parallel edges.
func (g *Graph) MultiEdgeCount() int { return g.rowCensus().surplus }

// IsSimple reports whether the graph has no self-loops and no parallel edges.
func (g *Graph) IsSimple() bool { return g.rowCensus() == rowCounts{} }

// ConnectedComponents returns, for every node, the id of its component
// (ids are dense, starting at 0) together with the number of components.
func (g *Graph) ConnectedComponents() (comp []int32, count int) {
	n := g.NumNodes()
	comp = make([]int32, n)
	for i := range comp {
		comp[i] = -1
	}
	// Every node enters the queue exactly once over all components, so one
	// n-entry buffer read through a head index serves them all.
	queue := make([]int32, 0, n)
	head := 0
	for start := 0; start < n; start++ {
		if comp[start] >= 0 {
			continue
		}
		id := int32(count)
		count++
		comp[start] = id
		queue = append(queue, int32(start))
		for ; head < len(queue); head++ {
			for _, w := range g.Neighbors(int(queue[head])) {
				if comp[w] < 0 {
					comp[w] = id
					queue = append(queue, w)
				}
			}
		}
	}
	return comp, count
}

// IsConnected reports whether the graph is connected (an empty graph is
// considered connected). It labels nothing: one BFS from node 0 over a
// visited bitset, stopping as soon as every node has been reached.
func (g *Graph) IsConnected() bool {
	n := g.NumNodes()
	if n == 0 {
		return true
	}
	visited, warm := make([]uint64, (n+63)/64), int32(0)
	visited[0] = 1
	queue := make([]int32, 1, n) // queue[0] = node 0
	for head := 0; head < len(queue) && len(queue) < n; head++ {
		// Touch the row twelve entries ahead: its miss overlaps these rows.
		if ahead := head + 12; ahead < len(queue) {
			warm ^= g.adj[g.offsets[queue[ahead]]] // queued over an edge: the slot exists
		}
		for _, w := range g.Neighbors(int(queue[head])) {
			if bit := uint64(1) << (uint(w) & 63); visited[w>>6]&bit == 0 {
				visited[w>>6] |= bit
				queue = append(queue, w)
			}
		}
	}
	keepLoads(warm)
	return len(queue) == n
}

// BFSDistances returns hop distances from src (-1 for unreachable nodes).
func (g *Graph) BFSDistances(src int) []int32 {
	n := g.NumNodes()
	dist := make([]int32, n)
	for i := range dist {
		dist[i] = -1
	}
	dist[src] = 0
	queue := make([]int32, 0, n)
	queue = append(queue, int32(src))
	for head := 0; head < len(queue); head++ {
		v := queue[head]
		for _, w := range g.Neighbors(int(v)) {
			if dist[w] < 0 {
				dist[w] = dist[v] + 1
				queue = append(queue, w)
			}
		}
	}
	return dist
}

// Eccentricity returns the maximum finite BFS distance from src and whether
// all nodes were reachable.
func (g *Graph) Eccentricity(src int) (ecc int, allReachable bool) {
	allReachable = true
	for _, d := range g.BFSDistances(src) {
		if d < 0 {
			allReachable = false
			continue
		}
		if int(d) > ecc {
			ecc = int(d)
		}
	}
	return ecc, allReachable
}

// DiameterExact computes the exact diameter by running a BFS from every
// node; it is O(n·m) and intended for small graphs. It returns an error if
// the graph is disconnected or empty.
func (g *Graph) DiameterExact() (int, error) {
	n := g.NumNodes()
	if n == 0 {
		return 0, fmt.Errorf("graph: diameter of empty graph")
	}
	diam := 0
	for v := 0; v < n; v++ {
		ecc, ok := g.Eccentricity(v)
		if !ok {
			return 0, fmt.Errorf("graph: diameter of disconnected graph")
		}
		if ecc > diam {
			diam = ecc
		}
	}
	return diam, nil
}

// DiameterLowerBound estimates the diameter with a double BFS sweep: BFS
// from src to the farthest node u, then BFS from u. The result is a lower
// bound on (and in practice close to) the true diameter.
func (g *Graph) DiameterLowerBound(src int) (int, error) {
	if g.NumNodes() == 0 {
		return 0, fmt.Errorf("graph: diameter of empty graph")
	}
	dist := g.BFSDistances(src)
	far, best := src, int32(0)
	for v, d := range dist {
		if d < 0 {
			return 0, fmt.Errorf("graph: diameter of disconnected graph")
		}
		if d > best {
			best = d
			far = v
		}
	}
	ecc, _ := g.Eccentricity(far)
	return ecc, nil
}

// EdgesBetween counts edges with exactly one endpoint in the set marked by
// inSet (|E(S, V\S)| in the paper's notation). Self-loops never cross.
func (g *Graph) EdgesBetween(inSet []bool) int {
	if len(inSet) != g.NumNodes() {
		panic(fmt.Sprintf("graph: EdgesBetween mask length %d != n %d", len(inSet), g.NumNodes()))
	}
	cut := 0
	for v := 0; v < g.NumNodes(); v++ {
		if !inSet[v] {
			continue
		}
		for _, w := range g.Neighbors(v) {
			if !inSet[w] {
				cut++
			}
		}
	}
	return cut
}

// EdgesWithin counts edges with both endpoints in the set marked by inSet
// (self-loops count once).
func (g *Graph) EdgesWithin(inSet []bool) int {
	if len(inSet) != g.NumNodes() {
		panic(fmt.Sprintf("graph: EdgesWithin mask length %d != n %d", len(inSet), g.NumNodes()))
	}
	stubs := 0
	for v := 0; v < g.NumNodes(); v++ {
		if !inSet[v] {
			continue
		}
		for _, w := range g.Neighbors(v) {
			if inSet[w] {
				stubs++
			}
		}
	}
	return stubs / 2
}

// NeighborsInSet returns how many of v's incident stubs lead into the set.
func (g *Graph) NeighborsInSet(v int, inSet []bool) int {
	c := 0
	for _, w := range g.Neighbors(v) {
		if inSet[w] {
			c++
		}
	}
	return c
}
