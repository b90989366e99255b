package transport

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"regcast/internal/xrand"
)

// DaemonConfig parameterises a Daemon. The zero value of every field is
// replaced by a sensible default; only Nodes is required, and only the
// package tests set the unexported fields.
type DaemonConfig struct {
	// Nodes is the number of local gossip endpoints (one listener each).
	Nodes int
	// Mailbox is the per-node inbox capacity (default 1024).
	Mailbox int
	// Seed drives backoff jitter: each link draws from its own split of
	// it, so a link's dial schedule does not depend on the others'.
	Seed uint64
	// queueLen is the per-peer bounded send-queue capacity; a full queue
	// drops with backpressure accounting instead of blocking (default 128).
	queueLen int
	// backoffBase is the first quarantine window after a failure; windows
	// double per consecutive failure up to backoffMax, with ±25% seeded
	// jitter (defaults 25ms / 1s).
	backoffBase time.Duration
	backoffMax  time.Duration
	// maxPacket bounds one wire frame; larger frames are rejected at the
	// receiver and the connection dropped (default MaxPacketBytes).
	maxPacket int
	// maxConns is the outbound connection budget: when a dial would
	// exceed it, the least-recently-used idle connection is evicted
	// first (default 512; 0 keeps the default, use a negative
	// value for unlimited).
	maxConns int
}

// MaxPacketBytes is the default bound on one wire frame. A peer that
// sends more than this per frame is treated as malformed: the frame is
// rejected and counted, and the decoder never buffers unbounded input.
const MaxPacketBytes = 1 << 20

const (
	// sendTimeout bounds one write attempt on a peer connection.
	sendTimeout = 2 * time.Second
	// sendRetries is how many times a broken write is retried on a fresh
	// connection before the packet is dropped and the peer quarantined.
	sendRetries = 1
	// dialTimeout bounds one connection attempt.
	dialTimeout = 2 * time.Second
)

// withDefaults fills zero fields.
func (c DaemonConfig) withDefaults() DaemonConfig {
	if c.Mailbox == 0 {
		c.Mailbox = 1024
	}
	if c.queueLen == 0 {
		c.queueLen = 128
	}
	if c.backoffBase == 0 {
		c.backoffBase = 25 * time.Millisecond
	}
	if c.backoffMax == 0 {
		c.backoffMax = time.Second
	}
	if c.maxPacket == 0 {
		c.maxPacket = MaxPacketBytes
	}
	if c.maxConns == 0 {
		c.maxConns = 512
	} else if c.maxConns < 0 {
		c.maxConns = 0 // ensureConn's convention: 0 = unlimited
	}
	return c
}

// Daemon is the resilient long-lived gossip transport over loopback TCP.
// Each destination owns a peerLink (dial.go) with a bounded send queue, a
// writer goroutine and that peer's dial state: writers dial lazily, retry
// broken writes on a fresh connection, and quarantine unreachable peers
// with exponential backoff so the rest of a fanout proceeds. Receivers
// decode newline-delimited JSON frames with a hard size bound, and each
// node's mailbox takes the rumour once: a rumour-bearing packet to a node
// that already received it is counted Deduped and dropped.
// Every packet outcome is accounted in Metrics — see Health.LedgerGap.
// Crashes are not the daemon's business: a FaultPlan's crash window drops
// the crashed node's packets and severs its links through DropPeerConns.
type Daemon struct {
	cfg DaemonConfig
	// now is the clock behind every backoff window; tests replace it
	// (newDaemon). Only the socket write deadline reads the wall clock
	// directly.
	now       func() time.Time
	listeners []net.Listener
	addrs     []string
	boxes     []chan Packet
	links     []*peerLink
	heard     []atomic.Bool // node i's mailbox has taken the rumour
	met       Metrics
	open      atomic.Int64 // open outbound connections, against maxConns
	writes    atomic.Int64 // write sequence number; orders links for LRU eviction

	closed atomic.Bool
	mu     sync.Mutex
	conns  map[net.Conn]struct{} // accepted inbound connections

	wg       sync.WaitGroup // accept loops and readers
	writerWg sync.WaitGroup // link writers
}

var _ Transport = (*Daemon)(nil)

// NewDaemon starts listeners and accept loops for cfg.Nodes endpoints.
func NewDaemon(cfg DaemonConfig) (*Daemon, error) { return newDaemon(cfg, time.Now) }

// newDaemon is NewDaemon on the given clock.
func newDaemon(cfg DaemonConfig, now func() time.Time) (*Daemon, error) {
	if cfg.Nodes <= 0 {
		return nil, fmt.Errorf("transport: NewDaemon(Nodes=%d) invalid", cfg.Nodes)
	}
	if cfg.Mailbox < 0 || cfg.queueLen < 0 {
		return nil, fmt.Errorf("transport: NewDaemon negative capacity")
	}
	cfg = cfg.withDefaults()
	n := cfg.Nodes
	d := &Daemon{
		cfg:       cfg,
		now:       now,
		listeners: make([]net.Listener, n),
		addrs:     make([]string, n),
		boxes:     make([]chan Packet, n),
		links:     make([]*peerLink, n),
		heard:     make([]atomic.Bool, n),
		conns:     make(map[net.Conn]struct{}),
	}
	jitter := xrand.New(cfg.Seed)
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			_ = d.Close()
			return nil, fmt.Errorf("transport: daemon listen for node %d: %w", i, err)
		}
		d.listeners[i] = ln
		d.addrs[i] = ln.Addr().String()
		d.boxes[i] = make(chan Packet, cfg.Mailbox)
		d.links[i] = &peerLink{d: d, to: i, queue: make(chan Packet, cfg.queueLen), jitter: jitter.Split()}
	}
	for i := 0; i < n; i++ {
		d.wg.Add(1)
		go d.acceptLoop(i)
	}
	return d, nil
}

// Inbox implements Transport.
func (d *Daemon) Inbox(node int) <-chan Packet { return d.boxes[node] }

// Send implements Transport: route the packet onto the destination's
// bounded queue. Unreachable destinations (quarantined, queue full) drop
// with accounting and return nil — gossip tolerates loss, and one dead
// peer must not abort a fanout. Only a shut-down daemon returns an error
// (ErrClosed).
func (d *Daemon) Send(to int, p Packet) error {
	if to < 0 || to >= len(d.links) {
		return fmt.Errorf("transport: Send to %d out of range [0,%d)", to, len(d.links))
	}
	if d.closed.Load() {
		return ErrClosed
	}
	d.met.Sends.Add(1)
	l := d.links[to]
	if l.quarantined(d.now()) {
		d.met.QuarantineDrops.Add(1)
		return nil
	}
	p.To = to
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

// DropPeerConns severs the persistent connection to a peer — a crash
// window's way of breaking a link so the redial path is exercised for real
// (the connKiller hook).
func (d *Daemon) DropPeerConns(id int) {
	if id >= 0 && id < len(d.links) {
		d.links[id].closeConn()
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
	if d.closed.Load() {
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
// connection, with maxPacket bounding each frame.
func (d *Daemon) readLoop(i int, conn net.Conn) {
	defer d.wg.Done()
	defer d.untrackConn(conn)
	sc := bufio.NewScanner(conn)
	// Scanner's limit is max(cap(buf), max): keep the initial buffer at or
	// under maxPacket or a small configured bound would be ignored.
	bufCap := 64 << 10
	if d.cfg.maxPacket < bufCap {
		bufCap = d.cfg.maxPacket
	}
	sc.Buffer(make([]byte, 0, bufCap), d.cfg.maxPacket)
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

// receive is the terminal accounting point for one decoded frame: dedup,
// then mailbox. A push or pull reply to a node whose mailbox has taken the
// rumour is Deduped; a pull request never is. The heard bit is set only
// after a successful mailbox insert — marking a node that dropped the
// rumour would suppress every retransmission to it for good.
func (d *Daemon) receive(i int, p Packet) {
	rumor := p.Kind == KindPush || p.Kind == KindPullReply
	if rumor && d.heard[i].Load() {
		d.met.Deduped.Add(1)
		return
	}
	if d.met.toMailbox(d.boxes[i], p) && rumor {
		d.heard[i].Store(true)
	}
}

// Health implements Transport.
func (d *Daemon) Health() Health {
	h := d.met.snapshot()
	h.ConnsOpen = int(d.open.Load())
	now := d.now()
	h.Peers = make([]PeerHealth, len(d.links))
	for i, l := range d.links {
		state := PeerIdle
		switch {
		case l.quarantined(now):
			state = PeerQuarantined
		case l.hasConn():
			state = PeerUp
		}
		h.Peers[i] = PeerHealth{
			Peer:     i,
			State:    state,
			StateStr: state.String(),
			Queued:   len(l.queue),
			Fails:    int(l.fails.Load()),
		}
	}
	return h
}

// Close implements Transport. Shutdown order matters: queues close first
// and writers drain (remaining packets count as ShutdownDrops), then
// connections and listeners fall, then readers finish, and only then do
// the mailboxes close — so no goroutine can deliver into a closed box.
func (d *Daemon) Close() error {
	if d.closed.Swap(true) {
		return nil
	}

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
