package graph

// FeistelDomain is the size of the power-of-two domain the stream's
// permutations cycle-walk over.
func (g *RegularStream) FeistelDomain() uint64 { return (g.hiMask + 1) * (g.loMask + 1) }
