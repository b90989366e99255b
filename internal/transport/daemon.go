package transport

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// DaemonConfig parameterises a Daemon. The zero value of every field is
// replaced by a sensible default; only Nodes is required.
type DaemonConfig struct {
	// Nodes is the number of local gossip endpoints (one listener each).
	Nodes int
	// Mailbox is the per-node inbox capacity (default 1024).
	Mailbox int
	// QueueLen is the per-peer bounded send-queue capacity; a full queue
	// drops with backpressure accounting instead of blocking (default 128).
	QueueLen int
	// SendTimeout bounds one write attempt on a peer connection
	// (default 2s).
	SendTimeout time.Duration
	// SendRetries is how many times a broken write is retried on a fresh
	// connection before the packet is dropped and the peer quarantined
	// (default 1).
	SendRetries int
	// DialTimeout bounds one connection attempt (default 2s).
	DialTimeout time.Duration
	// BackoffBase is the first quarantine window after a failure; windows
	// double per consecutive failure up to BackoffMax, with ±25% seeded
	// jitter (defaults 25ms / 1s).
	BackoffBase time.Duration
	BackoffMax  time.Duration
	// MaxPacket bounds one wire frame; larger frames are rejected at the
	// receiver and the connection dropped (default MaxPacketBytes).
	MaxPacket int
	// MaxConns is the outbound connection budget: when a dial would
	// exceed it, the least-recently-used idle dynamic connection is
	// evicted first (default 512; 0 keeps the default, use a negative
	// value for unlimited).
	MaxConns int
	// DedupExpiry is the dupemap rotation interval (default 1s); rumour
	// content is remembered for DedupGens−1 .. DedupGens intervals.
	DedupExpiry time.Duration
	// DedupGens is the number of dupemap generations (default 4, min 2).
	DedupGens int
	// StaticPeers are pinned: never budget-evicted and immune to
	// RemovePeer. Everything else is a dynamic peer fed by discovery.
	StaticPeers []int
	// Seed drives backoff jitter; fixed seed, reproducible dial schedule.
	Seed uint64
}

// MaxPacketBytes is the default bound on one wire frame. A peer that
// sends more than this per frame is treated as malformed: the frame is
// rejected and counted, and the decoder never buffers unbounded input.
const MaxPacketBytes = 1 << 20

// withDefaults fills zero fields.
func (c DaemonConfig) withDefaults() DaemonConfig {
	if c.Mailbox == 0 {
		c.Mailbox = 1024
	}
	if c.QueueLen == 0 {
		c.QueueLen = 128
	}
	if c.SendTimeout == 0 {
		c.SendTimeout = 2 * time.Second
	}
	if c.SendRetries == 0 {
		c.SendRetries = 1
	}
	if c.DialTimeout == 0 {
		c.DialTimeout = 2 * time.Second
	}
	if c.BackoffBase == 0 {
		c.BackoffBase = 25 * time.Millisecond
	}
	if c.BackoffMax == 0 {
		c.BackoffMax = time.Second
	}
	if c.MaxPacket == 0 {
		c.MaxPacket = MaxPacketBytes
	}
	if c.MaxConns == 0 {
		c.MaxConns = 512
	} else if c.MaxConns < 0 {
		c.MaxConns = 0 // scheduler convention: 0 = unlimited
	}
	if c.DedupExpiry == 0 {
		c.DedupExpiry = time.Second
	}
	if c.DedupGens == 0 {
		c.DedupGens = 4
	}
	return c
}

// Daemon is the resilient long-lived gossip transport over loopback TCP:
// persistent per-peer connections behind a dial scheduler. Each
// destination owns a peerLink with a bounded send queue and a writer
// goroutine; writers dial lazily, retry broken writes on a fresh
// connection, and quarantine unreachable peers with exponential backoff
// so the rest of a fanout proceeds. Receivers
// decode newline-delimited JSON frames with a hard size bound and
// suppress already-delivered rumour content through an expiring dupemap.
// Every packet outcome is accounted in Metrics — see Health.LedgerGap.
type Daemon struct {
	cfg       DaemonConfig
	listeners []net.Listener
	addrs     []string
	boxes     []chan Packet
	links     []*peerLink
	active    []atomic.Bool // discovery membership (RemovePeer clears)
	down      []atomic.Bool // crash-window flag (SetNodeDown)
	static    []bool
	dedup     *dupemap
	sched     *dialScheduler
	met       Metrics

	mu      sync.Mutex
	closed  bool
	closeCh chan struct{}
	conns   map[net.Conn]struct{} // accepted inbound connections

	wg       sync.WaitGroup // accept loops, readers, dedup rotator
	writerWg sync.WaitGroup // link writers
}

var _ Transport = (*Daemon)(nil)
var _ HealthReporter = (*Daemon)(nil)

// NewDaemon starts listeners and accept loops for cfg.Nodes endpoints.
func NewDaemon(cfg DaemonConfig) (*Daemon, error) {
	if cfg.Nodes <= 0 {
		return nil, fmt.Errorf("transport: NewDaemon(Nodes=%d) invalid", cfg.Nodes)
	}
	if cfg.Mailbox < 0 || cfg.QueueLen < 0 {
		return nil, fmt.Errorf("transport: NewDaemon negative capacity")
	}
	cfg = cfg.withDefaults()
	n := cfg.Nodes
	d := &Daemon{
		cfg:       cfg,
		listeners: make([]net.Listener, n),
		addrs:     make([]string, n),
		boxes:     make([]chan Packet, n),
		links:     make([]*peerLink, n),
		active:    make([]atomic.Bool, n),
		down:      make([]atomic.Bool, n),
		static:    make([]bool, n),
		dedup:     newDupemap(cfg.DedupGens, 0),
		sched:     newDialScheduler(cfg.BackoffBase, cfg.BackoffMax, cfg.MaxConns, cfg.Seed),
		closeCh:   make(chan struct{}),
		conns:     make(map[net.Conn]struct{}),
	}
	for _, p := range cfg.StaticPeers {
		if p < 0 || p >= n {
			return nil, fmt.Errorf("transport: static peer %d out of range [0,%d)", p, n)
		}
		d.static[p] = true
	}
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			_ = d.Close()
			return nil, fmt.Errorf("transport: daemon listen for node %d: %w", i, err)
		}
		d.listeners[i] = ln
		d.addrs[i] = ln.Addr().String()
		d.boxes[i] = make(chan Packet, cfg.Mailbox)
		d.links[i] = &peerLink{d: d, to: i, queue: make(chan Packet, cfg.QueueLen)}
		d.active[i].Store(true)
	}
	for i := 0; i < n; i++ {
		d.wg.Add(1)
		go d.acceptLoop(i)
	}
	if cfg.DedupExpiry > 0 {
		d.wg.Add(1)
		go d.rotateLoop()
	}
	return d, nil
}

// Addr returns the listen address of a node.
func (d *Daemon) Addr(node int) string { return d.addrs[node] }

// Inbox implements Transport.
func (d *Daemon) Inbox(node int) <-chan Packet { return d.boxes[node] }

// isClosed reports the shutdown flag.
func (d *Daemon) isClosed() bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.closed
}

// Send implements Transport: route the packet onto the destination's
// bounded queue. Unreachable destinations (removed, down, quarantined,
// queue full) drop with accounting and return nil — gossip tolerates
// loss, and one dead peer must not abort a fanout. Only a shut-down
// daemon returns an error (ErrClosed).
func (d *Daemon) Send(to int, p Packet) error {
	if to < 0 || to >= len(d.links) {
		return fmt.Errorf("transport: Send to %d out of range [0,%d)", to, len(d.links))
	}
	if d.isClosed() {
		return ErrClosed
	}
	d.met.Sends.Add(1)
	if p.From >= 0 && p.From < len(d.down) && d.down[p.From].Load() {
		d.met.DownDrops.Add(1) // a crashed node sends nothing
		return nil
	}
	if d.down[to].Load() {
		d.met.DownDrops.Add(1)
		return nil
	}
	if !d.active[to].Load() {
		d.met.RemovedDrops.Add(1)
		return nil
	}
	if d.sched.quarantined(to, time.Now()) {
		d.met.QuarantineDrops.Add(1)
		return nil
	}
	p.To = to
	l := d.links[to]
	l.qmu.Lock()
	if l.qclosed {
		l.qmu.Unlock()
		// This send passed the closed check before Close flipped it (a
		// send already after Close returns ErrClosed above). It was
		// accepted, then shut down: account it as a shutdown drop so the
		// ledger stays balanced for wrappers that counted the accept.
		d.met.ShutdownDrops.Add(1)
		return nil
	}
	if !l.started {
		l.started = true
		d.writerWg.Add(1)
		go l.writerLoop()
	}
	var full bool
	select {
	case l.queue <- p:
	default:
		full = true
	}
	l.qmu.Unlock()
	if full {
		d.met.QueueDrops.Add(1)
	}
	return nil
}

// AddPeer (re-)admits a peer to the dialable set — the discovery feed's
// join half. Peers start admitted; this is for re-admission after churn.
func (d *Daemon) AddPeer(id int) {
	if id >= 0 && id < len(d.active) {
		d.active[id].Store(true)
	}
}

// RemovePeer withdraws a dynamic peer from the dialable set and closes
// its persistent connection — the discovery feed's leave half. Static
// peers are pinned and ignore removal.
func (d *Daemon) RemovePeer(id int) {
	if id < 0 || id >= len(d.active) || d.static[id] {
		return
	}
	d.active[id].Store(false)
	d.links[id].closeConn()
}

// SetNodeDown marks a node crashed (true) or restarted (false). While
// down, the node neither sends nor receives: packets in either direction
// drop with DownDrops accounting, and its persistent connection is torn
// down so the dial scheduler must re-establish it on restart. Fault plans
// drive this during crash-restart windows.
func (d *Daemon) SetNodeDown(id int, down bool) {
	if id < 0 || id >= len(d.down) {
		return
	}
	d.down[id].Store(down)
	if down {
		d.DropPeerConns(id)
	}
}

// DropPeerConns severs the persistent connection to a peer without
// touching membership — the fault injector's way of breaking a link
// mid-flight so redial/backoff machinery is exercised for real.
func (d *Daemon) DropPeerConns(id int) {
	if id >= 0 && id < len(d.links) {
		d.links[id].closeConn()
	}
}

// RotateDedup expires the oldest dedup generation immediately (tests use
// this for deterministic expiry instead of the wall-clock rotator).
func (d *Daemon) RotateDedup() { d.dedup.Rotate() }

// rotateLoop expires dedup generations on the configured interval.
func (d *Daemon) rotateLoop() {
	defer d.wg.Done()
	t := time.NewTicker(d.cfg.DedupExpiry)
	defer t.Stop()
	for {
		select {
		case <-d.closeCh:
			return
		case <-t.C:
			d.dedup.Rotate()
		}
	}
}

// acceptLoop accepts inbound connections for node i; each connection
// carries a stream of frames, not one packet.
func (d *Daemon) acceptLoop(i int) {
	defer d.wg.Done()
	for {
		conn, err := d.listeners[i].Accept()
		if err != nil {
			return
		}
		if !d.trackConn(conn) {
			_ = conn.Close()
			return
		}
		d.wg.Add(1)
		go d.readLoop(i, conn)
	}
}

// trackConn registers an accepted connection for shutdown; it reports
// false when the daemon is already closing.
func (d *Daemon) trackConn(conn net.Conn) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return false
	}
	d.conns[conn] = struct{}{}
	return true
}

// untrackConn forgets a connection whose reader exited.
func (d *Daemon) untrackConn(conn net.Conn) {
	d.mu.Lock()
	delete(d.conns, conn)
	d.mu.Unlock()
	_ = conn.Close()
}

// readLoop decodes newline-delimited JSON frames off one inbound
// connection, with MaxPacket bounding each frame.
func (d *Daemon) readLoop(i int, conn net.Conn) {
	defer d.wg.Done()
	defer d.untrackConn(conn)
	sc := bufio.NewScanner(conn)
	// Scanner's limit is max(cap(buf), max): keep the initial buffer at or
	// under MaxPacket or a small configured bound would be ignored.
	bufCap := 64 << 10
	if d.cfg.MaxPacket < bufCap {
		bufCap = d.cfg.MaxPacket
	}
	sc.Buffer(make([]byte, 0, bufCap), d.cfg.MaxPacket)
	for sc.Scan() {
		line := sc.Bytes()
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		var p Packet
		if err := json.Unmarshal(line, &p); err != nil {
			d.met.DecodeDrops.Add(1)
			continue
		}
		d.met.FramesIn.Add(1)
		d.receive(i, p)
	}
	if errors.Is(sc.Err(), bufio.ErrTooLong) {
		// An oversized frame cannot be resynchronised; count it and drop
		// the connection (the sender's link will redial).
		d.met.OversizeDrops.Add(1)
	}
}

// receive is the terminal accounting point for one decoded frame: down
// check, dedup, then mailbox. The dedup key is only recorded after a
// successful mailbox insert — marking content "seen" that was actually
// dropped would suppress its retransmissions for a whole expiry window.
func (d *Daemon) receive(i int, p Packet) {
	if d.down[i].Load() {
		d.met.DownDrops.Add(1)
		return
	}
	key, dedupable := contentKey(i, p)
	if dedupable && d.dedup.Has(key) {
		d.met.Deduped.Add(1)
		return
	}
	select {
	case d.boxes[i] <- p:
		d.met.Delivered.Add(1)
		if dedupable {
			d.dedup.Add(key)
		}
	default:
		d.met.MailboxDrops.Add(1)
	}
}

// Health implements HealthReporter.
func (d *Daemon) Health() Health {
	h := d.met.snapshot()
	h.ConnsOpen = d.sched.openConns()
	now := time.Now()
	h.Peers = make([]PeerHealth, len(d.links))
	for i, l := range d.links {
		state := PeerIdle
		switch {
		case d.down[i].Load():
			state = PeerDown
		case !d.active[i].Load():
			state = PeerRemoved
		case d.sched.quarantined(i, now):
			state = PeerQuarantined
		case l.hasConn():
			state = PeerUp
		}
		h.Peers[i] = PeerHealth{
			Peer:     i,
			State:    state,
			StateStr: state.String(),
			Static:   d.static[i],
			Queued:   len(l.queue),
			Fails:    d.sched.failCount(i),
		}
	}
	return h
}

// Close implements Transport. Shutdown order matters: queues close first
// and writers drain (remaining packets count as ShutdownDrops), then
// connections and listeners fall, then readers finish, and only then do
// the mailboxes close — so no goroutine can deliver into a closed box.
func (d *Daemon) Close() error {
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return nil
	}
	d.closed = true
	close(d.closeCh)
	d.mu.Unlock()

	for _, l := range d.links {
		if l == nil {
			continue
		}
		l.qmu.Lock()
		if !l.qclosed {
			l.qclosed = true
			close(l.queue)
		}
		l.qmu.Unlock()
	}
	d.writerWg.Wait()
	for _, l := range d.links {
		if l != nil {
			l.closeConn()
		}
	}
	for _, ln := range d.listeners {
		if ln != nil {
			_ = ln.Close()
		}
	}
	d.mu.Lock()
	for conn := range d.conns {
		_ = conn.Close()
	}
	d.mu.Unlock()
	d.wg.Wait()
	for _, b := range d.boxes {
		if b != nil {
			close(b)
		}
	}
	return nil
}

// peerLink is the persistent outbound link to one destination: a bounded
// queue, a lazily-started writer goroutine, and at most one connection.
type peerLink struct {
	d  *Daemon
	to int

	qmu     sync.Mutex
	queue   chan Packet
	qclosed bool
	started bool

	cmu     sync.Mutex
	conn    net.Conn
	enc     *json.Encoder
	lastUse atomic.Int64 // unix nanos of last successful write (LRU eviction)
}

// hasConn reports whether a connection is currently open.
func (l *peerLink) hasConn() bool {
	l.cmu.Lock()
	defer l.cmu.Unlock()
	return l.conn != nil
}

// closeConn tears down the link's connection (if any) and releases its
// budget slot. Safe from any goroutine; the writer just redials.
func (l *peerLink) closeConn() {
	l.cmu.Lock()
	if l.conn != nil {
		_ = l.conn.Close()
		l.conn = nil
		l.enc = nil
		l.d.sched.releaseSlot()
	}
	l.cmu.Unlock()
}

// writerLoop drains the queue until Close; it owns all writes on this
// link.
func (l *peerLink) writerLoop() {
	defer l.d.writerWg.Done()
	defer l.closeConn()
	for p := range l.queue {
		if l.d.isClosed() {
			l.d.met.ShutdownDrops.Add(1)
			continue
		}
		l.deliver(p)
	}
}

// deliver writes one packet, dialing if needed and retrying a broken
// write on a fresh connection. Exhausted retries quarantine the peer and
// drop the packet with accounting — graceful degradation, not an error.
func (l *peerLink) deliver(p Packet) {
	d := l.d
	if d.sched.quarantined(l.to, time.Now()) {
		d.met.QuarantineDrops.Add(1)
		return
	}
	if !d.active[l.to].Load() {
		d.met.RemovedDrops.Add(1)
		return
	}
	attempts := 0
	for {
		if err := l.ensureConn(); err != nil {
			d.met.WriteDrops.Add(1)
			return
		}
		l.cmu.Lock()
		conn, enc := l.conn, l.enc
		l.cmu.Unlock()
		if conn == nil {
			// Evicted or crashed between ensureConn and here; redial.
			attempts++
			if attempts > d.cfg.SendRetries {
				d.sched.onFailure(l.to, time.Now())
				d.met.WriteDrops.Add(1)
				return
			}
			d.met.Retries.Add(1)
			continue
		}
		_ = conn.SetWriteDeadline(time.Now().Add(d.cfg.SendTimeout))
		// Count the frame before the reader can see it: once Encode has
		// put bytes on the wire the receive side may bump FramesIn at any
		// moment, and a snapshot must never read Written < FramesIn.
		d.met.Written.Add(1)
		if err := enc.Encode(p); err == nil {
			l.lastUse.Store(time.Now().UnixNano())
			return
		}
		d.met.Written.Add(-1)
		l.closeConn()
		attempts++
		if attempts > d.cfg.SendRetries {
			d.sched.onFailure(l.to, time.Now())
			d.met.WriteDrops.Add(1)
			return
		}
		d.met.Retries.Add(1)
	}
}

// ensureConn dials the link's destination if no connection is open,
// consulting the scheduler for budget (evicting an idle dynamic link
// when over) and recording history for backoff.
func (l *peerLink) ensureConn() error {
	l.cmu.Lock()
	if l.conn != nil {
		l.cmu.Unlock()
		return nil
	}
	l.cmu.Unlock()
	d := l.d
	if d.sched.acquireSlot(d.evictIdleConn) {
		d.met.BudgetEvictions.Add(1)
	}
	d.met.Dials.Add(1)
	conn, err := net.DialTimeout("tcp", d.addrs[l.to], d.cfg.DialTimeout)
	if err != nil {
		d.sched.releaseSlot()
		d.met.DialFails.Add(1)
		d.sched.onFailure(l.to, time.Now())
		return err
	}
	if d.sched.onSuccess(l.to) {
		d.met.Redials.Add(1)
	}
	l.cmu.Lock()
	if l.conn != nil {
		// Lost a race with another dial on this link (cannot happen while
		// the writer is the only dialer, but stay safe).
		l.cmu.Unlock()
		_ = conn.Close()
		d.sched.releaseSlot()
		return nil
	}
	l.conn = conn
	l.enc = json.NewEncoder(conn)
	l.lastUse.Store(time.Now().UnixNano())
	l.cmu.Unlock()
	return nil
}

// evictIdleConn closes the least-recently-used idle dynamic connection to
// free a budget slot; it reports whether it found a victim.
func (d *Daemon) evictIdleConn() bool {
	var victim *peerLink
	oldest := int64(math.MaxInt64)
	for i, l := range d.links {
		if d.static[i] || !l.hasConn() || len(l.queue) > 0 {
			continue
		}
		if lu := l.lastUse.Load(); lu < oldest {
			oldest, victim = lu, l
		}
	}
	if victim == nil {
		return false
	}
	victim.closeConn()
	return true
}
