package transport

import (
	"errors"
	"strings"
	"testing"
	"time"

	"regcast/internal/p2p/overlay"
	"regcast/internal/xrand"
)

// newTestDaemon builds a daemon with fast backoff so failure-path tests
// do not sleep for human-scale windows.
func newTestDaemon(t *testing.T, cfg DaemonConfig) *Daemon {
	t.Helper()
	if cfg.BackoffBase == 0 {
		cfg.BackoffBase = 5 * time.Millisecond
	}
	if cfg.BackoffMax == 0 {
		cfg.BackoffMax = 20 * time.Millisecond
	}
	if cfg.DedupExpiry == 0 {
		cfg.DedupExpiry = time.Minute // tests rotate explicitly
	}
	d, err := NewDaemon(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = d.Close() })
	return d
}

func TestDaemonValidation(t *testing.T) {
	if _, err := NewDaemon(DaemonConfig{Nodes: 0}); err == nil {
		t.Error("Nodes=0 accepted")
	}
	if _, err := NewDaemon(DaemonConfig{Nodes: 2, Mailbox: -1}); err == nil {
		t.Error("negative mailbox accepted")
	}
	if _, err := NewDaemon(DaemonConfig{Nodes: 2, StaticPeers: []int{7}}); err == nil {
		t.Error("out-of-range static peer accepted")
	}
}

func TestDaemonSendReceive(t *testing.T) {
	d := newTestDaemon(t, DaemonConfig{Nodes: 2})
	want := Packet{From: 0, Kind: KindPush, Rumors: []Rumor{{ID: "r1", Payload: "x"}}}
	if err := d.Send(1, want); err != nil {
		t.Fatal(err)
	}
	select {
	case p := <-d.Inbox(1):
		if p.From != 0 || p.To != 1 || p.Kind != KindPush || len(p.Rumors) != 1 {
			t.Errorf("packet mangled: %+v", p)
		}
	case <-time.After(stepWait(t, 2*time.Second)):
		t.Fatal("packet not delivered")
	}
	// Delivered is bumped just after the mailbox insert; wait it out.
	waitCond(t, func() bool { return d.Health().Delivered == 1 }, "delivery accounted")
	h := d.Health()
	if h.Sends != 1 || h.Dials != 1 {
		t.Errorf("health = sends %d dials %d, want 1/1", h.Sends, h.Dials)
	}
	if gap := h.LedgerGap(); gap != 0 {
		t.Errorf("LedgerGap = %d, want 0", gap)
	}
}

// TestDaemonLedgerNeverNegative polls Health while a burst is in flight:
// a frame is counted as Written before the receive side can count it, so
// no snapshot may show more frames decoded than written.
func TestDaemonLedgerNeverNegative(t *testing.T) {
	const burst = 200
	d := newTestDaemon(t, DaemonConfig{Nodes: 2, Mailbox: burst, QueueLen: burst})
	stop := make(chan struct{})
	polls := make(chan int)
	go func() {
		n := 0
		defer func() { polls <- n }()
		for {
			select {
			case <-stop:
				return
			default:
			}
			n++
			if h := d.Health(); h.WireLost() < 0 {
				t.Errorf("snapshot %d: WireLost = %d (written %d, framesIn %d)", n, h.WireLost(), h.Written, h.FramesIn)
				return
			}
		}
	}()
	for i := 0; i < burst; i++ {
		// Pull requests carry no rumour content, so none of them dedup.
		if err := d.Send(1, Packet{From: 0, Kind: KindPullRequest}); err != nil {
			t.Fatal(err)
		}
	}
	waitCond(t, func() bool { return d.Health().Delivered == burst }, "burst delivered")
	close(stop)
	if n := <-polls; n == 0 {
		t.Fatal("poller never ran")
	}
	if gap := d.Health().LedgerGap(); gap != 0 {
		t.Errorf("LedgerGap = %d, want 0", gap)
	}
}

func TestDaemonPersistentConnection(t *testing.T) {
	d := newTestDaemon(t, DaemonConfig{Nodes: 2})
	const msgs = 25
	for i := 0; i < msgs; i++ {
		// Pull requests carry no rumour content, so none of them dedup.
		if err := d.Send(1, Packet{From: 0, Kind: KindPullRequest}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < msgs; i++ {
		select {
		case <-d.Inbox(1):
		case <-time.After(stepWait(t, 2*time.Second)):
			t.Fatalf("only %d/%d packets arrived", i, msgs)
		}
	}
	waitCond(t, func() bool { return d.Health().Delivered == msgs }, "all deliveries accounted")
	h := d.Health()
	if h.Dials != 1 {
		t.Errorf("Dials = %d over %d sends, want 1 persistent connection", h.Dials, msgs)
	}
	if h.Written != msgs || h.FramesIn != msgs {
		t.Errorf("written/framesIn = %d/%d, want %d each", h.Written, h.FramesIn, msgs)
	}
}

func TestDaemonDedupSuppressesRepeatedContent(t *testing.T) {
	d := newTestDaemon(t, DaemonConfig{Nodes: 2, DedupGens: 2})
	push := Packet{From: 0, Kind: KindPush, Rumors: []Rumor{{ID: "r", Payload: "p"}}}
	for i := 0; i < 3; i++ {
		if err := d.Send(1, push); err != nil {
			t.Fatal(err)
		}
	}
	// A pull-reply repeating the same content dedups too (content key is
	// kind-independent).
	if err := d.Send(1, Packet{From: 0, Kind: KindPullReply, Rumors: push.Rumors}); err != nil {
		t.Fatal(err)
	}
	waitCond(t, func() bool {
		h := d.Health()
		return h.Delivered+h.Deduped == 4
	}, "4 packets accounted")
	h := d.Health()
	if h.Delivered != 1 || h.Deduped != 3 {
		t.Errorf("delivered/deduped = %d/%d, want 1/3", h.Delivered, h.Deduped)
	}
	// After the dedup ring fully rotates the content is deliverable again.
	for i := 0; i < 2; i++ {
		d.RotateDedup()
	}
	if err := d.Send(1, push); err != nil {
		t.Fatal(err)
	}
	waitCond(t, func() bool { return d.Health().Delivered == 2 }, "re-delivery after dedup expiry")
}

func TestDaemonRemoveAddPeer(t *testing.T) {
	d := newTestDaemon(t, DaemonConfig{Nodes: 2})
	d.RemovePeer(1)
	if err := d.Send(1, Packet{From: 0, Kind: KindPullRequest}); err != nil {
		t.Fatal(err)
	}
	if h := d.Health(); h.RemovedDrops != 1 {
		t.Errorf("RemovedDrops = %d, want 1", h.RemovedDrops)
	}
	if st := d.Health().Peers[1]; st.State != PeerRemoved {
		t.Errorf("peer 1 state = %v, want removed", st.State)
	}
	d.AddPeer(1)
	if err := d.Send(1, Packet{From: 0, Kind: KindPullRequest}); err != nil {
		t.Fatal(err)
	}
	waitCond(t, func() bool { return d.Health().Delivered == 1 }, "delivery after re-admission")
}

func TestDaemonStaticPeerPinned(t *testing.T) {
	d := newTestDaemon(t, DaemonConfig{Nodes: 2, StaticPeers: []int{1}})
	// Static peers are immune to discovery removal.
	d.RemovePeer(1)
	if err := d.Send(1, Packet{From: 0, Kind: KindPullRequest}); err != nil {
		t.Fatal(err)
	}
	waitCond(t, func() bool { return d.Health().Delivered == 1 }, "delivery to pinned static peer")
	if !d.Health().Peers[1].Static {
		t.Error("peer 1 not flagged static in health snapshot")
	}
}

func TestDaemonCrashWindowDropsBothDirections(t *testing.T) {
	d := newTestDaemon(t, DaemonConfig{Nodes: 2})
	d.SetNodeDown(1, true)
	if err := d.Send(1, Packet{From: 0, Kind: KindPullRequest}); err != nil {
		t.Fatal(err)
	}
	// A crashed node sends nothing either.
	if err := d.Send(0, Packet{From: 1, Kind: KindPullRequest}); err != nil {
		t.Fatal(err)
	}
	if h := d.Health(); h.DownDrops != 2 {
		t.Errorf("DownDrops = %d, want 2", h.DownDrops)
	}
	if st := d.Health().Peers[1]; st.State != PeerDown {
		t.Errorf("peer 1 state = %v, want down", st.State)
	}
	d.SetNodeDown(1, false)
	if err := d.Send(1, Packet{From: 0, Kind: KindPullRequest}); err != nil {
		t.Fatal(err)
	}
	waitCond(t, func() bool { return d.Health().Delivered == 1 }, "delivery after restart")
}

func TestDaemonDialFailureQuarantinesPeer(t *testing.T) {
	d := newTestDaemon(t, DaemonConfig{Nodes: 2, BackoffBase: time.Minute, BackoffMax: time.Minute})
	// Kill node 1's listener so the dial gets connection-refused.
	_ = d.listeners[1].Close()
	if err := d.Send(1, Packet{From: 0, Kind: KindPullRequest}); err != nil {
		t.Fatal(err)
	}
	waitCond(t, func() bool { return d.Health().WriteDrops == 1 }, "write drop after failed dial")
	h := d.Health()
	if h.DialFails == 0 {
		t.Errorf("DialFails = %d, want > 0", h.DialFails)
	}
	if st := h.Peers[1]; st.State != PeerQuarantined || st.Fails == 0 {
		t.Errorf("peer 1 = %+v, want quarantined with fails > 0", st)
	}
	// The quarantine makes further sends cheap drops, not dial storms.
	if err := d.Send(1, Packet{From: 0, Kind: KindPullRequest}); err != nil {
		t.Fatal(err)
	}
	h = d.Health()
	if h.QuarantineDrops != 1 {
		t.Errorf("QuarantineDrops = %d, want 1", h.QuarantineDrops)
	}
	if gap := h.LedgerGap(); gap != 0 {
		t.Errorf("LedgerGap = %d under dial failures, want 0", gap)
	}
}

func TestDaemonRedialAfterSeveredConnection(t *testing.T) {
	d := newTestDaemon(t, DaemonConfig{Nodes: 2})
	if err := d.Send(1, Packet{From: 0, Kind: KindPullRequest}); err != nil {
		t.Fatal(err)
	}
	waitCond(t, func() bool { return d.Health().Delivered == 1 }, "first delivery")
	d.DropPeerConns(1)
	if err := d.Send(1, Packet{From: 0, Kind: KindPullRequest}); err != nil {
		t.Fatal(err)
	}
	waitCond(t, func() bool { return d.Health().Delivered == 2 }, "delivery after severed connection")
	h := d.Health()
	if h.Dials < 2 || h.Redials < 1 {
		t.Errorf("dials/redials = %d/%d, want >= 2 / >= 1", h.Dials, h.Redials)
	}
}

func TestDaemonConnectionBudgetEvictsIdleLink(t *testing.T) {
	d := newTestDaemon(t, DaemonConfig{Nodes: 3, MaxConns: 1})
	if err := d.Send(1, Packet{From: 0, Kind: KindPullRequest}); err != nil {
		t.Fatal(err)
	}
	waitCond(t, func() bool { return d.Health().Delivered == 1 }, "first delivery")
	if err := d.Send(2, Packet{From: 0, Kind: KindPullRequest}); err != nil {
		t.Fatal(err)
	}
	waitCond(t, func() bool { return d.Health().Delivered == 2 }, "second delivery")
	h := d.Health()
	if h.BudgetEvictions < 1 {
		t.Errorf("BudgetEvictions = %d, want >= 1", h.BudgetEvictions)
	}
	if h.ConnsOpen > 1 {
		t.Errorf("ConnsOpen = %d over budget 1", h.ConnsOpen)
	}
}

func TestDaemonMailboxBackpressure(t *testing.T) {
	d := newTestDaemon(t, DaemonConfig{Nodes: 2, Mailbox: 1})
	for i := 0; i < 3; i++ {
		if err := d.Send(1, Packet{From: 0, Kind: KindPullRequest}); err != nil {
			t.Fatal(err)
		}
	}
	waitCond(t, func() bool {
		h := d.Health()
		return h.Delivered+h.MailboxDrops == 3
	}, "3 packets accounted")
	h := d.Health()
	if h.Delivered != 1 || h.MailboxDrops != 2 {
		t.Errorf("delivered/mailboxDrops = %d/%d, want 1/2", h.Delivered, h.MailboxDrops)
	}
	if gap := h.LedgerGap(); gap != 0 {
		t.Errorf("LedgerGap = %d under backpressure, want 0", gap)
	}
}

func TestDaemonOversizeFrameDropped(t *testing.T) {
	d := newTestDaemon(t, DaemonConfig{Nodes: 2, MaxPacket: 256})
	big := Packet{From: 0, Kind: KindPush, Rumors: []Rumor{{ID: "big", Payload: strings.Repeat("x", 1024)}}}
	if err := d.Send(1, big); err != nil {
		t.Fatal(err)
	}
	waitCond(t, func() bool { return d.Health().OversizeDrops == 1 }, "oversize frame counted")
	h := d.Health()
	if h.Delivered != 0 {
		t.Errorf("oversize frame delivered (Delivered = %d)", h.Delivered)
	}
	// The frame was written but never decoded: it is wire loss, and the
	// ledger still balances.
	if h.WireLost() != 1 {
		t.Errorf("WireLost = %d, want 1", h.WireLost())
	}
	if gap := h.LedgerGap(); gap != 0 {
		t.Errorf("LedgerGap = %d, want 0", gap)
	}
}

func TestDaemonSendAfterClose(t *testing.T) {
	d, err := NewDaemon(DaemonConfig{Nodes: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if err := d.Send(0, Packet{}); !errors.Is(err, ErrClosed) {
		t.Errorf("Send after Close = %v, want ErrClosed", err)
	}
	if err := d.Close(); err != nil {
		t.Error("double close errored")
	}
	if _, open := <-d.Inbox(0); open {
		t.Error("inbox still open after Close")
	}
}

func TestDaemonGossipClusterLedger(t *testing.T) {
	if testing.Short() {
		t.Skip("daemon gossip in -short mode")
	}
	g := gossipGraph(t, 12, 4)
	d, err := NewDaemon(DaemonConfig{Nodes: 12, Mailbox: 4096, Seed: 9, DedupExpiry: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewCluster(g, d, 2, 45)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = c.Close() }()
	if err := c.Insert(0, Rumor{ID: "daemon-rumor", Payload: "persistent"}); err != nil {
		t.Fatal(err)
	}
	ticks := driveUntilAllKnow(t, c, "daemon-rumor", 40)
	// Settle the wire so written == decoded, then close for a final ledger.
	waitCond(t, func() bool {
		h := d.Health()
		return h.Written == h.FramesIn
	}, "wire quiescent")
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	h := d.Health()
	t.Logf("daemon gossip: %d ticks, sends=%d delivered=%d deduped=%d dials=%d",
		ticks, h.Sends, h.Delivered, h.Deduped, h.Dials)
	if gap := h.LedgerGap(); gap != 0 {
		t.Errorf("LedgerGap = %d after close, want 0", gap)
	}
	if h.WireLost() != 0 {
		t.Errorf("WireLost = %d on a clean run, want 0", h.WireLost())
	}
	if h.Deduped == 0 {
		t.Error("anti-entropy gossip produced zero dedup hits (dupemap inert?)")
	}
	// Persistent links: far fewer dials than packets.
	if h.Dials >= h.Sends {
		t.Errorf("dials %d >= sends %d: connections are not persistent", h.Dials, h.Sends)
	}
}

// TestDaemonOverlayDiscovery wires the overlay's membership feed into the
// daemon: churn-discovered peers become dialable, departed ones drop.
func TestDaemonOverlayDiscovery(t *testing.T) {
	o, err := overlay.New(8, 4, 4, xrand.New(3))
	if err != nil {
		t.Fatal(err)
	}
	d := newTestDaemon(t, DaemonConfig{Nodes: 12})
	o.OnMembership(func(id int, joined bool) {
		if joined {
			d.AddPeer(id)
		} else {
			d.RemovePeer(id)
		}
	})
	victim := 5
	if err := o.Leave(victim); err != nil {
		t.Fatal(err)
	}
	if err := d.Send(victim, Packet{From: 0, Kind: KindPullRequest}); err != nil {
		t.Fatal(err)
	}
	if h := d.Health(); h.RemovedDrops != 1 {
		t.Errorf("RemovedDrops = %d after overlay leave, want 1", h.RemovedDrops)
	}
	id, err := o.Join()
	if err != nil {
		t.Fatal(err)
	}
	if id != victim {
		t.Logf("join recycled id %d (victim was %d)", id, victim)
	}
	if err := d.Send(id, Packet{From: 0, Kind: KindPullRequest}); err != nil {
		t.Fatal(err)
	}
	waitCond(t, func() bool { return d.Health().Delivered == 1 }, "delivery to rejoined peer")
}
