package phonecall

// Uninformed is the sentinel receipt round for nodes that have not yet
// received the message.
const Uninformed = -1

// Protocol is a strictly oblivious broadcast protocol in the (modified)
// random phone call model. All decisions are functions of the current round
// t and of the round at which the deciding node first received the message
// (informedAt). Protocols therefore cannot base decisions on neighbour
// identities or on the history of communication partners, matching the
// model of §1.2 and the lower-bound model of §2 of the paper.
//
// Rounds are numbered from 1; the message is created at the source in
// round 0 (so the source has informedAt == 0 and the message's age in
// round t is t). A protocol that also implements DialMemory dials under
// footnote 2's sequentialised model.
type Protocol interface {
	// Name identifies the protocol in traces and result tables.
	Name() string
	// Choices returns k, the number of distinct neighbours every node dials
	// per round (1 in the standard phone call model, 4 in the paper's
	// modified model). Nodes of degree < k dial all their neighbours.
	Choices() int
	// Horizon returns the total number of rounds the schedule runs for.
	// The engine stops after Horizon rounds regardless of progress (the
	// algorithms in the paper are Monte Carlo with a fixed running time).
	Horizon() int
	// SendPush reports whether a node informed in round informedAt (>= 0)
	// transmits the message over its outgoing (dialled) channels in round t.
	// It is only consulted for nodes with informedAt < t: a message received
	// in the current round cannot be forwarded in the same round.
	SendPush(t, informedAt int) bool
	// SendPull reports whether a node informed in round informedAt (>= 0)
	// transmits the message over its incoming channels in round t (i.e.
	// answers the nodes that dialled it).
	SendPull(t, informedAt int) bool
}

// DialMemory is the optional Protocol extension of footnote 2's
// sequentialised model: each node excludes the partners of its last
// Memory() rounds from its one dial per round, so Memory() > 0 requires
// Choices() == 1 and DialUniform (Config.Validate). Memory advances every
// round, so every alive node dials, sender or not.
type DialMemory interface {
	Protocol
	Memory() int
}

// memoryOf is p's dial memory: DialMemory's answer, or 0.
func memoryOf(p Protocol) int {
	if m, ok := p.(DialMemory); ok {
		return m.Memory()
	}
	return 0
}
