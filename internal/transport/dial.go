package transport

import (
	"encoding/json"
	"math"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"regcast/internal/xrand"
)

// peerLink is the persistent outbound link to one destination: a bounded
// queue, a lazily-started writer goroutine, at most one connection, and the
// destination's dial state. The writer is the only goroutine that dials its
// peer, so it alone owns that state (geth's dial scheduler keeps the same
// rule: one owner for dial history) and no lock guards it. Send and Health
// read only what the writer publishes atomically: the quarantine expiry
// and the failure count. Dial failures open a backoff window of
// backoffBase·2^(fails−1), capped at backoffMax, with ±25% jitter from the
// link's own seeded stream; a successful dial clears the history. A
// maxConns budget evicts the least-recently-written idle link before a new
// dial.
type peerLink struct {
	d  *Daemon
	to int

	qmu     sync.Mutex
	queue   chan Packet
	qclosed bool
	started bool

	// Dial state, written by the writer only.
	ever   bool         // connected at least once: the next connect is a redial
	jitter *xrand.Rand  // this link's split of DaemonConfig.Seed
	fails  atomic.Int64 // consecutive failures (Health reads it)
	until  atomic.Int64 // quarantine expiry in UnixNano on d.now (Send reads it)

	cmu     sync.Mutex
	conn    net.Conn
	enc     *json.Encoder
	lastUse atomic.Int64 // d.writes at this link's last connect or write
}

// quarantined reports whether the peer sits inside its backoff window.
func (l *peerLink) quarantined(now time.Time) bool { return now.UnixNano() < l.until.Load() }

// fail records a failed dial or an exhausted write and opens the peer's
// backoff window, so a cohort of failed peers does not redial in lockstep.
func (l *peerLink) fail() {
	cfg := &l.d.cfg
	fails := l.fails.Add(1)
	backoff := cfg.backoffBase << uint(min(fails-1, 16))
	if backoff > cfg.backoffMax || backoff <= 0 {
		backoff = cfg.backoffMax
	}
	backoff = time.Duration(float64(backoff) * (0.75 + 0.5*l.jitter.Float64()))
	l.until.Store(l.d.now().Add(backoff).UnixNano())
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
		l.conn, l.enc = nil, nil
		l.d.open.Add(-1)
	}
	l.cmu.Unlock()
}

// writerLoop drains the queue until Close; it owns all writes and dials
// on this link.
func (l *peerLink) writerLoop() {
	defer l.d.writerWg.Done()
	defer l.closeConn()
	for p := range l.queue {
		if l.d.closed.Load() {
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
	if l.quarantined(d.now()) {
		d.met.QuarantineDrops.Add(1)
		return
	}
	for attempt := 0; ; attempt++ {
		if attempt > sendRetries {
			l.fail()
			d.met.WriteDrops.Add(1)
			return
		}
		if attempt > 0 {
			d.met.Retries.Add(1)
		}
		if err := l.ensureConn(); err != nil {
			d.met.WriteDrops.Add(1)
			return
		}
		if l.write(p) {
			return
		}
	}
}

// write encodes p on the open connection and reports success; a failed
// write closes the connection for the next attempt to redial.
func (l *peerLink) write(p Packet) bool {
	l.cmu.Lock()
	conn, enc := l.conn, l.enc
	l.cmu.Unlock()
	if conn == nil {
		return false // severed since ensureConn (crash window or eviction)
	}
	d := l.d
	_ = conn.SetWriteDeadline(time.Now().Add(sendTimeout))
	// Count the frame before the reader can see it: once Encode has put
	// bytes on the wire the receive side may bump FramesIn at any moment,
	// and a snapshot must never read Written < FramesIn.
	d.met.Written.Add(1)
	if err := enc.Encode(p); err != nil {
		d.met.Written.Add(-1)
		l.closeConn()
		return false
	}
	l.lastUse.Store(d.writes.Add(1))
	return true
}

// ensureConn dials the link's destination if no connection is open,
// evicting an idle link first when the budget is spent. The dial
// proceeds either way — the budget bounds steady-state connections, it
// must not deadlock a fully busy link set.
func (l *peerLink) ensureConn() error {
	if l.hasConn() {
		return nil // only this writer sets conn, so it stays set or is severed
	}
	d := l.d
	if budget := int64(d.cfg.maxConns); budget > 0 && d.open.Load() >= budget && d.evictIdleConn() {
		d.met.BudgetEvictions.Add(1)
	}
	d.open.Add(1)
	d.met.Dials.Add(1)
	dialer := net.Dialer{Timeout: dialTimeout}
	conn, err := dialer.Dial("tcp", d.addrs[l.to])
	if err != nil {
		d.open.Add(-1)
		d.met.DialFails.Add(1)
		l.fail()
		return err
	}
	if l.ever {
		d.met.Redials.Add(1)
	}
	l.ever = true
	l.fails.Store(0)
	l.until.Store(0)
	l.cmu.Lock()
	l.conn, l.enc = conn, json.NewEncoder(conn)
	l.cmu.Unlock()
	l.lastUse.Store(d.writes.Add(1))
	return nil
}

// evictIdleConn closes the least-recently-written idle connection
// to free a budget slot; it reports whether it found a victim.
func (d *Daemon) evictIdleConn() bool {
	var victim *peerLink
	oldest := int64(math.MaxInt64)
	for _, l := range d.links {
		if !l.hasConn() || len(l.queue) > 0 {
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
