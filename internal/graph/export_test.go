package graph

// FeistelDomain is the size of the power-of-two domain the stream's
// permutations cycle-walk over.
func (g *RegularStream) FeistelDomain() uint64 { return (g.hiMask + 1) * (g.loMask + 1) }

// countSWRollbacks runs f and reports how many of tryStegerWormald's batch
// rollbacks replayed an accepted prefix (the batch ended after its first
// pair) and how many were caused by a pair drawing one stub twice.
func countSWRollbacks(f func()) (midBatch, sameStub int) {
	swRollback = func(pair int, same bool) {
		if pair > 0 {
			midBatch++
		}
		if same {
			sameStub++
		}
	}
	defer func() { swRollback = nil }()
	f()
	return midBatch, sameStub
}
