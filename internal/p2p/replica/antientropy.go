package replica

import (
	"fmt"

	"regcast/internal/phonecall"
	"regcast/internal/xrand"
)

// Entries returns a copy of the store's contents, for synchronisation.
func (s *Store) Entries() map[string]Entry {
	out := make(map[string]Entry, len(s.entries))
	for k, v := range s.entries {
		out[k] = v
	}
	return out
}

// Merge applies every entry of other into s. Merge is idempotent,
// commutative and associative (LWW semantics), so repeated pairwise merges
// converge.
func (s *Store) Merge(other *Store) {
	for k, e := range other.entries {
		s.applyEntry(k, e)
	}
}

// AntiEntropyReport summarises a repair pass.
type AntiEntropyReport struct {
	// Rounds actually executed (<= maxRounds).
	Rounds int
	// Exchanges counts pairwise store synchronisations performed.
	Exchanges int64
	// Converged reports whether all alive stores were identical when the
	// pass ended.
	Converged bool
}

// AntiEntropy runs Demers-style anti-entropy repair on the replicas'
// stores: in every round each alive node picks one uniformly random alive
// neighbour and the pair exchanges full stores (merging both ways). It
// stops as soon as all alive stores agree, or after maxRounds.
//
// Rumour broadcasting (the paper's algorithm) does the heavy lifting at
// O(n·log log n) per update; anti-entropy is the cheap backstop that
// repairs the stragglers that failures or churn left behind — the
// combination is exactly the replicated-database architecture of Demers
// et al. that §1 of the paper cites.
func AntiEntropy(topo phonecall.Topology, stores []Store, rng *xrand.Rand, maxRounds int) (AntiEntropyReport, error) {
	if topo == nil || rng == nil {
		return AntiEntropyReport{}, fmt.Errorf("replica: AntiEntropy requires topology and rng")
	}
	if len(stores) != topo.NumNodes() {
		return AntiEntropyReport{}, fmt.Errorf("replica: %d stores for %d nodes", len(stores), topo.NumNodes())
	}
	if maxRounds < 0 {
		return AntiEntropyReport{}, fmt.Errorf("replica: negative maxRounds %d", maxRounds)
	}
	var rep AntiEntropyReport
	for round := 1; round <= maxRounds; round++ {
		if StoresConverged(topo, stores) {
			rep.Converged = true
			return rep, nil
		}
		rep.Rounds = round
		for v := 0; v < topo.NumNodes(); v++ {
			if !topo.Alive(v) || topo.Degree(v) == 0 {
				continue
			}
			w := topo.Neighbor(v, rng.IntN(topo.Degree(v)))
			if !topo.Alive(w) {
				continue
			}
			rep.Exchanges++
			stores[v].Merge(&stores[w])
			stores[w].Merge(&stores[v])
		}
	}
	rep.Converged = StoresConverged(topo, stores)
	return rep, nil
}
