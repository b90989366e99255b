package transport

import (
	"net"
	"testing"
	"time"
)

// The dial schedule lives on each peerLink and is owned by its writer. In
// these tests no writer goroutine is started: the test goroutine plays the
// writer, calling deliver directly, so every dial happens synchronously and
// the fake clock decides every backoff window — no sleeps.

// refusedAddr returns a loopback address nothing listens on.
func refusedAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	_ = ln.Close()
	return addr
}

// window is the rest of the link's backoff window on the daemon's clock.
func window(l *peerLink, clk *fakeClock) time.Duration {
	return time.Duration(l.until.Load() - clk.Now().UnixNano())
}

var pull = Packet{From: 0, Kind: KindPullRequest}

func TestDialSchedulerBackoffGrowsAndCaps(t *testing.T) {
	d, clk := newTestDaemon(t, DaemonConfig{Nodes: 2, backoffBase: 100 * time.Millisecond, backoffMax: time.Second})
	d.addrs[1] = refusedAddr(t)
	l := d.links[1]
	// Windows double per consecutive failure (±25% jitter) up to the cap.
	wantBase := []time.Duration{100, 200, 400, 800, 1000, 1000}
	for i, base := range wantBase {
		l.deliver(pull)
		got := window(l, clk)
		lo := time.Duration(float64(base*time.Millisecond) * 0.75)
		hi := time.Duration(float64(base*time.Millisecond) * 1.25)
		if got < lo || got > hi {
			t.Errorf("failure %d: backoff %v outside [%v, %v]", i+1, got, lo, hi)
		}
		clk.Advance(got) // the window is half-open: at its end the peer is dialable
		if l.quarantined(clk.Now()) {
			t.Errorf("failure %d: still quarantined at the end of its window", i+1)
		}
	}
	h := d.Health()
	if n := int64(len(wantBase)); h.Peers[1].Fails != len(wantBase) || h.Dials != n || h.DialFails != n || h.WriteDrops != n {
		t.Errorf("fails %d dials %d dialFails %d writeDrops %d, want %d each",
			h.Peers[1].Fails, h.Dials, h.DialFails, h.WriteDrops, n)
	}
}

// TestDialSchedulerQuarantineWindow: sends inside a failed peer's window
// drop without dialling, and the window's expiry leads to exactly one
// redial, after which the connection persists.
func TestDialSchedulerQuarantineWindow(t *testing.T) {
	d, clk := newTestDaemon(t, DaemonConfig{Nodes: 2})
	l := d.links[1]
	l.deliver(pull) // first connection
	live := d.addrs[1]
	l.closeConn() // severed, as a crash window does
	d.addrs[1] = refusedAddr(t)
	l.deliver(pull) // the redial fails: quarantined
	d.addrs[1] = live
	if !l.quarantined(clk.Now()) {
		t.Fatal("peer not quarantined after a failed dial")
	}
	for i := 0; i < 3; i++ {
		l.deliver(pull)
	}
	if err := d.Send(1, pull); err != nil { // Send reads the published window
		t.Fatal(err)
	}
	if h := d.Health(); h.Dials != 2 || h.QuarantineDrops != 4 || h.Peers[1].State != PeerQuarantined {
		t.Errorf("inside the window: dials %d quarantineDrops %d state %v, want 2/4/quarantined",
			h.Dials, h.QuarantineDrops, h.Peers[1].State)
	}
	clk.Advance(window(l, clk))
	for i := 0; i < 3; i++ {
		l.deliver(pull)
	}
	if h := d.Health(); h.Dials != 3 || h.Redials != 1 || h.Written != 4 {
		t.Errorf("after the window: dials %d redials %d written %d, want 3/1/4", h.Dials, h.Redials, h.Written)
	}
}

func TestDialSchedulerSuccessClearsHistory(t *testing.T) {
	d, clk := newTestDaemon(t, DaemonConfig{Nodes: 2})
	l := d.links[1]
	live := d.addrs[1]
	d.addrs[1] = refusedAddr(t)
	for i := 0; i < 2; i++ {
		l.deliver(pull)
		clk.Advance(window(l, clk))
	}
	if f := d.Health().Peers[1].Fails; f != 2 {
		t.Fatalf("fails = %d after two refused dials, want 2", f)
	}
	d.addrs[1] = live
	l.deliver(pull)
	h := d.Health()
	if h.Peers[1].Fails != 0 || h.Peers[1].State != PeerUp || l.until.Load() != 0 {
		t.Errorf("peer 1 = %+v after a successful dial, want up with its history cleared", h.Peers[1])
	}
	if h.Redials != 0 {
		t.Errorf("first-ever connection counted as a redial (%d)", h.Redials)
	}
}

// TestDialSchedulerBudget: the connection budget is one counter, and
// eviction takes the least-recently-written idle link.
func TestDialSchedulerBudget(t *testing.T) {
	d, _ := newTestDaemon(t, DaemonConfig{Nodes: 5, maxConns: 3})
	for _, to := range []int{1, 2, 3, 1} { // 1 is written after 3
		d.links[to].deliver(pull)
	}
	d.links[4].deliver(pull) // over budget: 1 connected first but 2 is oldest
	h := d.Health()
	if h.ConnsOpen != 3 || h.BudgetEvictions != 1 {
		t.Errorf("conns %d evictions %d, want 3/1", h.ConnsOpen, h.BudgetEvictions)
	}
	for peer, want := range map[int]PeerState{1: PeerUp, 2: PeerIdle, 3: PeerUp, 4: PeerUp} {
		if got := h.Peers[peer].State; got != want {
			t.Errorf("peer %d = %v, want %v", peer, got, want)
		}
	}
	d.links[2].closeConn() // already closed: the counter must not move
	if c := d.Health().ConnsOpen; c != 3 {
		t.Errorf("ConnsOpen = %d after closing a closed link, want 3", c)
	}
}
