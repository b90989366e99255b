package regcast

import (
	"fmt"

	"regcast/internal/transport"
)

// The daemon engine's ledger and fault injector surface here: health
// snapshots come back on Result.Transport, and chaos schedules go in
// through WithTransportFaults. The underlying machinery lives in
// internal/transport — persistent per-peer connections that redial with
// backoff, bounded send queues with drop accounting, a mailbox that takes
// the rumour once per node (repeats count as dedup hits), and a seeded
// FaultPlan whose drop/delay/duplicate/partition/crash decisions are pure
// functions of (seed, peer pair, packet sequence, epoch), so chaos runs
// replay bit-identically.
type (
	// TransportHealth is the daemon engine's metrics snapshot: per-bucket
	// drop accounting, dials, redials, retries, dedup hits and the
	// malformed-frame counters. Its LedgerGap method checks
	// that every packet handed to Send is accounted by exactly one outcome
	// — zero once the cluster closed, asserted by the chaos soak tests —
	// and InFlight counts what is still moving.
	TransportHealth = transport.Health
	// TransportFaultStats is the fault-injection ledger attached to a
	// TransportHealth when a chaos run wrapped the transport.
	TransportFaultStats = transport.FaultStats
	// FaultConfig is a seeded, reproducible chaos schedule for the
	// daemon engine: probabilistic drop/duplicate/delay plus
	// epoch-windowed partitions and crash-restarts.
	FaultConfig = transport.FaultConfig
	// PartitionWindow splits the node set in two for a range of fault
	// epochs (the daemon engine advances one epoch per tick).
	PartitionWindow = transport.PartitionWindow
	// CrashWindow takes one node down for a range of fault epochs; its
	// persistent connections are severed at the crash and redialed with
	// backoff after the restart.
	CrashWindow = transport.CrashWindow
)

// WithTransportFaults injects a seeded fault plan between the gossip
// cluster and the transport. Transport engines only (Run rejects other
// engines); the fault epoch advances once per tick, so PartitionWindow
// and CrashWindow ranges are tick ranges. The resulting
// Result.Transport.Faults carries the injection ledger.
func WithTransportFaults(cfg FaultConfig) RunnerOption {
	return func(r *Runner) { r.faults = &cfg }
}

// faultNodesInRange rejects a crash or partition window that names a node
// outside [0, n): the plan would accept it and it would never fire.
func faultNodesInRange(cfg FaultConfig, n int) error {
	for _, w := range cfg.Crashes {
		if w.Node < 0 || w.Node >= n {
			return fmt.Errorf("regcast: crash window node %d out of range [0,%d)", w.Node, n)
		}
	}
	for _, w := range cfg.Partitions {
		for _, v := range w.A {
			if v < 0 || v >= n {
				return fmt.Errorf("regcast: partition window node %d out of range [0,%d)", v, n)
			}
		}
	}
	return nil
}
