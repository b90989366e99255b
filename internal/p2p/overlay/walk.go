package overlay

import "fmt"

// RandomWalk performs a simple random walk of the given length from an
// alive peer and returns the endpoint. Walks are the decentralised
// neighbour-discovery primitive of low-diameter P2P constructions
// (Pandurangan, Raghavan & Upfal — reference [32] of the paper): on a
// regular expander, O(log n) steps land on a nearly uniform peer.
func (o *Overlay) RandomWalk(from, length int) (int, error) {
	if from < 0 || from >= len(o.deg) || !o.alive[from] {
		return -1, fmt.Errorf("overlay: RandomWalk from %d: not an alive peer", from)
	}
	if length < 0 {
		return -1, fmt.Errorf("overlay: negative walk length %d", length)
	}
	cur := from
	for step := 0; step < length; step++ {
		row := o.row(cur)
		if len(row) == 0 {
			return -1, fmt.Errorf("overlay: walk stranded at degree-0 peer %d", cur)
		}
		cur = int(row[o.rng.IntN(len(row))])
	}
	return cur, nil
}

// WalkJoin splices a new peer into the overlay like Join, but discovers
// the d/2 edges to splice by random walks from a known contact peer
// instead of by global uniform edge sampling — the fully decentralised
// variant a real deployment would run. Walk length should be Ω(log n);
// on the expander overlay that suffices for near-uniform edge selection.
func (o *Overlay) WalkJoin(contact, walkLen int) (int, error) {
	if len(o.freeIDs) == 0 {
		return -1, fmt.Errorf("overlay: no free slots (capacity %d)", len(o.deg))
	}
	if o.aliveCnt <= o.d {
		return -1, fmt.Errorf("overlay: too few peers (%d) to splice a join", o.aliveCnt)
	}
	if contact < 0 || contact >= len(o.deg) || !o.alive[contact] {
		return -1, fmt.Errorf("overlay: WalkJoin contact %d: not an alive peer", contact)
	}
	if walkLen < 1 {
		return -1, fmt.Errorf("overlay: walk length %d < 1", walkLen)
	}
	id := int(o.freeIDs[len(o.freeIDs)-1])
	o.freeIDs = o.freeIDs[:len(o.freeIDs)-1]
	o.epoch++

	spliced := 0
	for attempts := 0; spliced < o.d/2 && attempts < 64*o.d; attempts++ {
		// Walk to a near-uniform peer, then take a uniform incident stub:
		// on a d-regular overlay this samples a near-uniform edge.
		u, err := o.RandomWalk(contact, walkLen)
		if err != nil {
			o.freeIDs = append(o.freeIDs, int32(id))
			return -1, err
		}
		if u == id || o.deg[u] == 0 {
			continue
		}
		w := o.row(u)[o.rng.IntN(int(o.deg[u]))]
		if u == id || int(w) == id {
			continue
		}
		o.removeEdge(u, w)
		o.addEdge(u, int32(id))
		o.addEdge(int(w), int32(id))
		spliced++
	}
	if spliced < o.d/2 {
		// Roll forward with uniform sampling rather than leave the peer
		// under-connected (extremely unlikely on a healthy overlay).
		for ; spliced < o.d/2; spliced++ {
			u, w := o.randomEdge()
			if u == id || int(w) == id {
				spliced--
				continue
			}
			o.removeEdge(u, w)
			o.addEdge(u, int32(id))
			o.addEdge(int(w), int32(id))
		}
	}
	o.setAlive(id, true)
	o.notify(id, true)
	return id, nil
}
