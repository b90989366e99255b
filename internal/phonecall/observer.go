package phonecall

import "time"

// Observer receives streaming per-round callbacks while a run executes: it
// is the only way RoundMetrics leave the engine (Result keeps totals), so a
// caller that wants a trajectory collects it here. The engine invokes
// observers from the coordinating goroutine only, in a deterministic order:
//
//   - OnInformed(source, 0) once, before round 1;
//   - for every round t, OnInformed(v, t) for each node first informed in
//     round t, in ascending node id (a round's receipts are a set: no
//     caller reaches a node "first"), then OnRound with round t's metrics.
//
// Under churn a node can lose the message when it rejoins and be informed
// again later, so OnInformed may fire more than once for the same node.
// A nil Config.Observer adds no allocations and no per-round work to the
// steady-state loop beyond a nil check.
type Observer interface {
	// OnRound is called once per executed round, after the round's receipts
	// have been applied.
	OnRound(RoundMetrics)
	// OnInformed is called when node first receives the message (in round
	// `round`; 0 is the source's creation round).
	OnInformed(node, round int)
}

// PhaseObserver is an optional extension of Config.Observer: an observer
// that implements it is also told, at the end of every round and before
// that round's OnRound, how long the coordinator spent in each of round's
// three steps — decision tables, shard passes, merge-and-apply — by the
// monotonic clock; a counted round (Result.CountedRounds) reports
// (count, 0, 0). No clock is read for an observer that does not.
type PhaseObserver interface {
	Observer
	OnRoundPhases(t int, tables, passes, merge time.Duration)
}
