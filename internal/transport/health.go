package transport

import "sync/atomic"

// Metrics is a transport's live counter set. Every packet handed to Send
// ends up in exactly one terminal bucket — delivered, deduped, or one of
// the drop counters — which is what makes the health snapshot a ledger
// rather than a vibe: Health.LedgerGap() must be zero at quiescence, and
// the soak tests assert it under injected faults.
//
// Counters split by pipeline stage (the tests' InMem fake uses the first
// and last rows' Sends, MailboxDrops and Delivered only):
//
//	send side    Sends → {QuarantineDrops, QueueDrops} or enqueue
//	writer       queue → {QuarantineDrops, WriteDrops, ShutdownDrops} or Written
//	wire         Written − FramesIn = frames not (yet) decoded
//	receive side FramesIn → {Deduped, MailboxDrops} or Delivered
//
// Each stage bumps its counter before the packet is visible to the next
// stage (Written before Encode, Delivered before the mailbox insert), and
// snapshot reads the stages downstream first, so a mid-run snapshot never
// counts a packet in a later stage without counting it in the earlier
// ones: InFlight() and WireLost() are never negative.
type Metrics struct {
	Sends     atomic.Int64 // packets accepted by Send
	Delivered atomic.Int64 // packets placed in a destination mailbox
	Deduped   atomic.Int64 // rumour-bearing packets to a node that already took the rumour

	QueueDrops      atomic.Int64 // per-peer send queue full (backpressure)
	QuarantineDrops atomic.Int64 // peer inside its backoff window
	WriteDrops      atomic.Int64 // dial/write failed after retries
	ShutdownDrops   atomic.Int64 // queued packets discarded at Close
	MailboxDrops    atomic.Int64 // destination mailbox full
	OversizeDrops   atomic.Int64 // frames over maxPacket, connection dropped
	DecodeDrops     atomic.Int64 // malformed frames

	// Written counts frames fully written to a peer connection. The writer
	// adds a frame just before the write and takes it back if the write
	// fails, so Written >= FramesIn holds at every instant.
	Written  atomic.Int64
	FramesIn atomic.Int64 // frames decoded off an inbound connection

	Dials           atomic.Int64 // connection attempts (first dials and redials)
	Redials         atomic.Int64 // successful re-establishments after a drop
	DialFails       atomic.Int64 // failed connection attempts
	Retries         atomic.Int64 // in-place write retries after a broken write
	BudgetEvictions atomic.Int64 // idle connections closed to respect the budget
}

// FaultStats is the fault-injection side of the ledger, populated when a
// FaultPlan wraps the transport.
type FaultStats struct {
	In             int64 // packets entering the plan
	Forwarded      int64 // packets passed to the inner transport
	Dropped        int64 // random drops
	PartitionDrops int64 // drops across an active partition
	CrashDrops     int64 // drops to/from a crashed node
	ClosedDrops    int64 // inner transport refused (shutdown race)
	Duplicated     int64 // extra copies injected
	Delayed        int64 // packets held back before forwarding
}

// drops sums the plan's terminal drop buckets.
func (f FaultStats) drops() int64 {
	return f.Dropped + f.PartitionDrops + f.CrashDrops + f.ClosedDrops
}

// Health is a point-in-time snapshot of a transport's counters, exposed
// through the facade as regcast.TransportHealth. Snapshot after Close, or
// once Cluster.Settle returned without a timeout, for an exact ledger.
// Each counter is the Metrics counter of the same name.
type Health struct {
	Sends     int64
	Delivered int64
	Deduped   int64

	QueueDrops      int64
	QuarantineDrops int64
	WriteDrops      int64
	ShutdownDrops   int64
	MailboxDrops    int64
	OversizeDrops   int64
	DecodeDrops     int64

	Written  int64
	FramesIn int64

	Dials           int64
	Redials         int64
	DialFails       int64
	Retries         int64
	BudgetEvictions int64

	// Faults is non-nil when a FaultPlan wraps the transport; its In
	// replaces Sends as the top of the ledger and its drop buckets join
	// DroppedTotal.
	Faults *FaultStats
}

// WireLost is the number of frames fully written to a connection that
// never came back out of a decoder — bytes stranded in kernel buffers or
// rejected at the receiver (oversize and malformed frames are inside this
// bucket; their dedicated counters are diagnostics, not separate ledger
// entries). Before Close it also holds the frames still on the wire, which
// is why InFlight adds it back.
func (h Health) WireLost() int64 {
	return h.Written - h.FramesIn
}

// DroppedTotal sums every terminal drop bucket, including wire loss and
// (when present) the fault plan's drops. OversizeDrops and DecodeDrops
// are not added — frames that failed to decode never counted as FramesIn,
// so they are already inside WireLost.
func (h Health) DroppedTotal() int64 {
	total := h.QueueDrops + h.QuarantineDrops + h.WriteDrops +
		h.ShutdownDrops + h.MailboxDrops + h.WireLost()
	if h.Faults != nil {
		total += h.Faults.drops()
	}
	return total
}

// LedgerGap is sends (plus fault-injected duplicates) minus every
// accounted outcome. Zero at quiescence means no packet vanished without
// being counted; the chaos soak tests assert exactly that.
func (h Health) LedgerGap() int64 {
	in := h.Sends
	var dup int64
	if h.Faults != nil {
		in = h.Faults.In
		dup = h.Faults.Duplicated
	}
	return in + dup - h.Delivered - h.Deduped - h.DroppedTotal()
}

// InFlight is the number of accepted packets not yet in a terminal bucket:
// queued, on the wire (a frame is in flight until it is decoded) or held
// back by a fault plan's delay. Zero means nothing the transport accepted
// is still moving; a frame lost on a severed connection keeps it above
// zero, so Cluster.Settle then reports a timeout rather than guessing.
func (h Health) InFlight() int64 {
	return h.LedgerGap() + h.WireLost()
}

// snapshot copies the live counters into a Health value, downstream stages
// first (the keyed fields are evaluated in the order written): a packet a
// later stage has counted was counted by every earlier stage before, so
// the snapshot may show a packet as still moving but never as both moving
// and done. MailboxDrops precedes Delivered because a failed insert takes
// its Delivered back before it counts the drop.
func (m *Metrics) snapshot() Health {
	return Health{
		MailboxDrops:    m.MailboxDrops.Load(),
		Delivered:       m.Delivered.Load(),
		Deduped:         m.Deduped.Load(),
		OversizeDrops:   m.OversizeDrops.Load(),
		DecodeDrops:     m.DecodeDrops.Load(),
		FramesIn:        m.FramesIn.Load(),
		Written:         m.Written.Load(),
		WriteDrops:      m.WriteDrops.Load(),
		ShutdownDrops:   m.ShutdownDrops.Load(),
		QuarantineDrops: m.QuarantineDrops.Load(),
		QueueDrops:      m.QueueDrops.Load(),
		Sends:           m.Sends.Load(),
		Dials:           m.Dials.Load(),
		Redials:         m.Redials.Load(),
		DialFails:       m.DialFails.Load(),
		Retries:         m.Retries.Load(),
		BudgetEvictions: m.BudgetEvictions.Load(),
	}
}
