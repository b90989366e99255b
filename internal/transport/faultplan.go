package transport

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// PartitionWindow splits the node set into two sides for an epoch range:
// packets between a member of A and a non-member drop while the window is
// active. Epochs are half-open [From, Until); the chaos driver advances
// them at tick boundaries (AdvanceEpoch), which is what makes a partition
// schedule reproducible over real sockets.
type PartitionWindow struct {
	From, Until int
	A           []int
}

// CrashWindow takes one node down for an epoch range [From, Until): every
// packet to or from it drops, and at window start the links to it are
// severed so they have to be redialled after the restart. This is the one
// crash path: the daemon itself has no notion of a node being down. Node
// state (its rumour store) survives — this is a transport-level
// crash-restart, the kind the paper's fault model tolerates.
type CrashWindow struct {
	Node        int
	From, Until int
}

// FaultConfig is a seeded, reproducible chaos schedule. Each probabilistic
// fault is decided by a pure function of (Seed, from, to, packet kind,
// sequence number within that kind on the pair), never by shared mutable
// randomness — so two plans with the same seed fed the same per-kind packet
// sequences make identical decisions regardless of goroutine interleaving,
// and a chaos run is as replayable as every simulator in this repo. Each
// kind counts apart because a node's pushes (sent by Cluster.Tick) and its
// pull replies (sent by its own loop) to one peer race each other.
type FaultConfig struct {
	// Seed drives every probabilistic decision.
	Seed uint64
	// Drop is the per-packet drop probability.
	Drop float64
	// Duplicate is the probability a packet is forwarded twice.
	Duplicate float64
	// Reorder is the probability a packet is held and released after the
	// next packet of its kind on its (from,to) pair — a swap within one
	// kind's stream — or at the next epoch, whichever comes first.
	Reorder float64
	// DelayProb and Delay inject latency: with probability DelayProb a
	// packet is forwarded Delay later from a separate goroutine.
	DelayProb float64
	Delay     time.Duration
	// Partitions and Crashes are epoch-scheduled structural faults.
	Partitions []PartitionWindow
	Crashes    []CrashWindow
	// RecordTrace retains every decision for equality checks in tests.
	RecordTrace bool
}

// validate rejects probabilities outside [0,1] and malformed windows,
// naming the first bad field in declaration order.
func (c FaultConfig) validate() error {
	for _, f := range []struct {
		name string
		p    float64
	}{{"Drop", c.Drop}, {"Duplicate", c.Duplicate}, {"Reorder", c.Reorder}, {"DelayProb", c.DelayProb}} {
		if !(f.p >= 0 && f.p <= 1) { // NaN fails too
			return fmt.Errorf("transport: FaultConfig.%s = %v out of [0,1]", f.name, f.p)
		}
	}
	if c.Delay < 0 {
		return fmt.Errorf("transport: FaultConfig.Delay negative")
	}
	for _, w := range c.Partitions {
		if w.Until < w.From {
			return fmt.Errorf("transport: partition window [%d,%d) inverted", w.From, w.Until)
		}
	}
	for _, w := range c.Crashes {
		if w.Until < w.From {
			return fmt.Errorf("transport: crash window [%d,%d) inverted", w.From, w.Until)
		}
	}
	return nil
}

// FaultDecision is one recorded fault-injection outcome.
type FaultDecision struct {
	From, To int
	Kind     Kind
	Seq      uint64
	Epoch    int
	Action   string // pass|drop|dup|reorder-hold|delay|partition-drop|crash-drop
}

// connKiller is the optional inner-transport hook a crash window uses to
// sever real connections (Daemon implements it).
type connKiller interface {
	DropPeerConns(id int)
}

// FaultPlan wraps any Transport and injects the configured faults on the
// send path. It implements Transport itself, so a gossip Cluster built on
// a FaultPlan-wrapped Daemon runs the real protocol through real sockets
// with deterministic chaos in between. All injected outcomes are
// accounted (FaultStats) so the end-to-end ledger still balances.
type FaultPlan struct {
	inner Transport
	cfg   FaultConfig
	epoch atomic.Int64

	pmu   sync.Mutex
	pairs map[pairKey]*pairState

	// partition membership precomputed per window
	partA []map[int]bool

	in, forwarded, dropped, partDrops, crashDrops, closedDrops atomic.Int64
	duplicated, delayed, reordered, held                       atomic.Int64

	tmu   sync.Mutex
	trace []FaultDecision

	mu     sync.Mutex
	closed bool
	wg     sync.WaitGroup // pending delayed forwards
}

// pairKey names one kind's packet stream on a directed pair.
type pairKey struct {
	from, to int
	kind     Kind
}

// pairState carries one stream's sequence counter and held packet.
type pairState struct {
	seq  uint64
	held *Packet
}

var _ Transport = (*FaultPlan)(nil)

// NewFaultPlan wraps inner with a seeded fault schedule.
func NewFaultPlan(inner Transport, cfg FaultConfig) (*FaultPlan, error) {
	if inner == nil {
		return nil, fmt.Errorf("transport: NewFaultPlan requires an inner transport")
	}
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	f := &FaultPlan{
		inner: inner,
		cfg:   cfg,
		pairs: make(map[pairKey]*pairState),
		partA: make([]map[int]bool, len(cfg.Partitions)),
	}
	for i, w := range cfg.Partitions {
		f.partA[i] = make(map[int]bool, len(w.A))
		for _, v := range w.A {
			f.partA[i][v] = true
		}
	}
	return f, nil
}

// AdvanceEpoch moves the fault clock one epoch forward. Chaos drivers
// call it at tick boundaries. Crossing into a crash window severs the
// crashed node's connections on a connKiller inner transport; advancing
// also flushes reorder-held packets so a hold never outlives its epoch.
func (f *FaultPlan) AdvanceEpoch() {
	e := int(f.epoch.Add(1))
	for _, w := range f.cfg.Crashes {
		if e == w.From && w.Until > w.From {
			if k, ok := f.inner.(connKiller); ok {
				k.DropPeerConns(w.Node)
			}
		}
	}
	f.flushHeld()
}

// flushHeld forwards every reorder-held packet.
func (f *FaultPlan) flushHeld() {
	f.pmu.Lock()
	var held []*Packet
	for _, ps := range f.pairs {
		if ps.held != nil {
			held = append(held, ps.held)
			ps.held = nil
		}
	}
	f.pmu.Unlock()
	for _, p := range held {
		f.release(p)
	}
}

// release forwards a reorder-held packet. It leaves the held gauge before
// it can reach a terminal bucket, so a snapshot never counts it twice.
func (f *FaultPlan) release(p *Packet) {
	f.held.Add(-1)
	f.forward(p.To, *p)
}

// crashed reports whether node is inside a crash window at epoch e.
func (f *FaultPlan) crashed(node, e int) bool {
	for _, w := range f.cfg.Crashes {
		if w.Node == node && e >= w.From && e < w.Until {
			return true
		}
	}
	return false
}

// partitioned reports whether (from,to) crosses an active partition at
// epoch e.
func (f *FaultPlan) partitioned(from, to, e int) bool {
	for i, w := range f.cfg.Partitions {
		if e >= w.From && e < w.Until && f.partA[i][from] != f.partA[i][to] {
			return true
		}
	}
	return false
}

// fault salts keep the per-fault coin flips independent.
const (
	saltDrop = iota + 1
	saltDup
	saltReorder
	saltDelay
)

// coin derives a uniform [0,1) draw as a pure function of the plan seed,
// the stream (directed pair and kind), its sequence number, and the fault
// salt. splitmix64-style finalisation: no shared state, no lock, no
// interleaving sensitivity.
func (f *FaultPlan) coin(k pairKey, seq uint64, salt uint64) float64 {
	x := f.cfg.Seed
	x ^= 0x9e3779b97f4a7c15 * (uint64(k.from)*0x100000001b3 + uint64(k.to) + 1)
	x ^= seq * 0xbf58476d1ce4e5b9
	x ^= (salt + uint64(k.kind)<<8) * 0x94d049bb133111eb
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return float64(x>>11) / (1 << 53)
}

// record appends a decision to the trace when recording is on.
func (f *FaultPlan) record(k pairKey, seq uint64, epoch int, action string) {
	if !f.cfg.RecordTrace {
		return
	}
	f.tmu.Lock()
	f.trace = append(f.trace, FaultDecision{From: k.from, To: k.to, Kind: k.kind, Seq: seq, Epoch: epoch, Action: action})
	f.tmu.Unlock()
}

// Trace returns a copy of the recorded decisions.
func (f *FaultPlan) Trace() []FaultDecision {
	f.tmu.Lock()
	defer f.tmu.Unlock()
	out := make([]FaultDecision, len(f.trace))
	copy(out, f.trace)
	return out
}

// Send implements Transport: decide this packet's fate, account it, and
// (maybe) forward to the inner transport.
func (f *FaultPlan) Send(to int, p Packet) error {
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return ErrClosed
	}
	f.mu.Unlock()
	f.in.Add(1)
	p.To = to
	e := int(f.epoch.Load())
	key := pairKey{p.From, to, p.Kind}

	if f.crashed(p.From, e) || f.crashed(to, e) {
		f.crashDrops.Add(1)
		f.record(key, 0, e, "crash-drop")
		return nil
	}
	if f.partitioned(p.From, to, e) {
		f.partDrops.Add(1)
		f.record(key, 0, e, "partition-drop")
		return nil
	}

	f.pmu.Lock()
	ps := f.pairs[key]
	if ps == nil {
		ps = &pairState{}
		f.pairs[key] = ps
	}
	seq := ps.seq
	ps.seq++
	f.pmu.Unlock()

	if f.cfg.Drop > 0 && f.coin(key, seq, saltDrop) < f.cfg.Drop {
		f.dropped.Add(1)
		f.record(key, seq, e, "drop")
		return nil
	}
	if f.cfg.Duplicate > 0 && f.coin(key, seq, saltDup) < f.cfg.Duplicate {
		f.duplicated.Add(1)
		f.record(key, seq, e, "dup")
		f.forward(to, p)
	}
	if f.cfg.Reorder > 0 && f.coin(key, seq, saltReorder) < f.cfg.Reorder {
		// Hold this packet; it is released right after the next packet of
		// its stream (a pairwise swap). A previous holdover is released
		// now so at most one packet per stream is ever in limbo.
		f.reordered.Add(1)
		f.held.Add(1)
		f.record(key, seq, e, "reorder-hold")
		held := p
		f.pmu.Lock()
		prev := ps.held
		ps.held = &held
		f.pmu.Unlock()
		if prev != nil {
			f.release(prev)
		}
		return nil
	}
	// A normal packet releases any holdover on its stream after itself.
	f.pmu.Lock()
	prev := ps.held
	ps.held = nil
	f.pmu.Unlock()

	if f.cfg.DelayProb > 0 && f.coin(key, seq, saltDelay) < f.cfg.DelayProb {
		f.delayed.Add(1)
		f.record(key, seq, e, "delay")
		f.wg.Add(1)
		time.AfterFunc(f.cfg.Delay, func() {
			defer f.wg.Done()
			f.forward(to, p)
		})
	} else {
		f.record(key, seq, e, "pass")
		f.forward(to, p)
	}
	if prev != nil {
		f.release(prev)
	}
	return nil
}

// forward hands a packet to the inner transport with accounting.
func (f *FaultPlan) forward(to int, p Packet) {
	if err := f.inner.Send(to, p); err != nil {
		f.closedDrops.Add(1)
		return
	}
	f.forwarded.Add(1)
}

// Inbox implements Transport.
func (f *FaultPlan) Inbox(node int) <-chan Packet { return f.inner.Inbox(node) }

// Close implements Transport: refuse new sends, wait out delayed
// forwards, flush reorder holds and give them up to a second to land —
// a frame the inner transport is closed under is stranded on its wire —
// then close the inner transport.
func (f *FaultPlan) Close() error {
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return nil
	}
	f.closed = true
	f.mu.Unlock()
	f.wg.Wait()
	f.flushHeld()
	waitFor(time.Second, func() bool { return f.inner.Health().InFlight() == 0 })
	return f.inner.Close()
}

// Stats snapshots the plan's fault counters, terminal buckets and the
// held gauge before In and Duplicated (the order Metrics.snapshot
// explains).
func (f *FaultPlan) Stats() FaultStats {
	return FaultStats{
		Dropped:        f.dropped.Load(),
		PartitionDrops: f.partDrops.Load(),
		CrashDrops:     f.crashDrops.Load(),
		ClosedDrops:    f.closedDrops.Load(),
		Held:           f.held.Load(),
		Forwarded:      f.forwarded.Load(),
		Delayed:        f.delayed.Load(),
		Reordered:      f.reordered.Load(),
		Duplicated:     f.duplicated.Load(),
		In:             f.in.Load(),
	}
}

// Health implements Transport: the inner transport's snapshot, read first
// because it is downstream, with this plan's fault ledger attached.
func (f *FaultPlan) Health() Health {
	h := f.inner.Health()
	stats := f.Stats()
	h.Faults = &stats
	return h
}
