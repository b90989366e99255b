package transport

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"
)

// fakeClock is a daemon clock that moves only when a test advances it, so
// backoff windows are driven without sleeping.
type fakeClock struct{ ns atomic.Int64 }

func (c *fakeClock) Now() time.Time          { return time.Unix(0, c.ns.Load()) }
func (c *fakeClock) Advance(d time.Duration) { c.ns.Add(int64(d)) }

// newTestDaemon builds a daemon on a fake clock; Cleanup closes it.
func newTestDaemon(t *testing.T, cfg DaemonConfig) (*Daemon, *fakeClock) {
	t.Helper()
	clk := &fakeClock{}
	clk.ns.Store(time.Date(2024, 1, 1, 0, 0, 0, 0, time.UTC).UnixNano())
	d, err := newDaemon(cfg, clk.Now)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = d.Close() })
	return d, clk
}

func TestDaemonValidation(t *testing.T) {
	if _, err := NewDaemon(DaemonConfig{Nodes: 0}); err == nil {
		t.Error("Nodes=0 accepted")
	}
	if _, err := NewDaemon(DaemonConfig{Nodes: 2, Mailbox: -1}); err == nil {
		t.Error("negative mailbox accepted")
	}
}

func TestDaemonSendReceive(t *testing.T) {
	d, _ := newTestDaemon(t, DaemonConfig{Nodes: 2})
	if err := d.Send(1, Packet{From: 0, Kind: KindPush}); err != nil {
		t.Fatal(err)
	}
	select {
	case p := <-d.Inbox(1):
		if p.From != 0 || p.Kind != KindPush {
			t.Errorf("packet mangled: %+v", p)
		}
	case <-time.After(stepWait(t, 2*time.Second)):
		t.Fatal("packet not delivered")
	}
	// Delivered is counted before the mailbox insert, so it is 1 already.
	h := d.Health()
	if h.Sends != 1 || h.Dials != 1 {
		t.Errorf("health = sends %d dials %d, want 1/1", h.Sends, h.Dials)
	}
	if gap := h.LedgerGap(); gap != 0 {
		t.Errorf("LedgerGap = %d, want 0", gap)
	}
}

// TestDaemonLedgerNeverNegative polls Health while a burst is in flight:
// every stage counts a packet before the next stage can see it and the
// snapshot reads downstream first, so no snapshot may show more frames
// decoded than written, or a negative number in flight.
func TestDaemonLedgerNeverNegative(t *testing.T) {
	const burst = 200
	d, _ := newTestDaemon(t, DaemonConfig{Nodes: 2, Mailbox: burst, queueLen: burst})
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
			if h := d.Health(); h.WireLost() < 0 || h.InFlight() < 0 {
				t.Errorf("snapshot %d: WireLost = %d (written %d, framesIn %d), InFlight = %d",
					n, h.WireLost(), h.Written, h.FramesIn, h.InFlight())
				return
			}
		}
	}()
	for i := 0; i < burst; i++ {
		// Pull requests carry no rumour, so none of them dedup.
		if err := d.Send(1, Packet{From: 0, Kind: KindPullRequest}); err != nil {
			t.Fatal(err)
		}
	}
	waitCond(t, func() bool { return d.Health().Delivered == burst }, "burst delivered")
	close(stop)
	if n := <-polls; n == 0 {
		t.Fatal("poller never ran")
	}
	if h := d.Health(); h.LedgerGap() != 0 || h.InFlight() != 0 {
		t.Errorf("LedgerGap/InFlight = %d/%d, want 0/0", h.LedgerGap(), h.InFlight())
	}
}

func TestDaemonPersistentConnection(t *testing.T) {
	d, _ := newTestDaemon(t, DaemonConfig{Nodes: 2})
	const msgs = 25
	for i := 0; i < msgs; i++ {
		// Pull requests carry no rumour, so none of them dedup.
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

// TestDaemonDedupSuppressesRepeatedContent: a node's mailbox takes the
// rumour once, whichever kind brings it — three pushes and a pull reply
// read one delivery and three dedups — while a pull request, which
// carries no rumour, is never deduped.
func TestDaemonDedupSuppressesRepeatedContent(t *testing.T) {
	d, _ := newTestDaemon(t, DaemonConfig{Nodes: 2})
	for _, k := range []Kind{KindPush, KindPush, KindPush, KindPullReply} {
		if err := d.Send(1, Packet{From: 0, Kind: k}); err != nil {
			t.Fatal(err)
		}
	}
	waitCond(t, func() bool {
		h := d.Health()
		return h.Delivered+h.Deduped == 4
	}, "4 packets accounted")
	if h := d.Health(); h.Delivered != 1 || h.Deduped != 3 {
		t.Errorf("delivered/deduped = %d/%d, want 1/3", h.Delivered, h.Deduped)
	}
	if err := d.Send(1, Packet{From: 0, Kind: KindPullRequest}); err != nil {
		t.Fatal(err)
	}
	waitCond(t, func() bool { return d.Health().Delivered == 2 }, "pull request delivered")
	if h := d.Health(); h.Deduped != 3 || h.LedgerGap() != 0 {
		t.Errorf("deduped %d, LedgerGap %d after a pull request, want 3/0", h.Deduped, h.LedgerGap())
	}
}

// TestDaemonMarksHeardOnlyAfterInsert: a push the full mailbox drops does
// not mark the node as holding the rumour, so the next push, after the
// mailbox drains, is delivered rather than deduped.
func TestDaemonMarksHeardOnlyAfterInsert(t *testing.T) {
	d, _ := newTestDaemon(t, DaemonConfig{Nodes: 2, Mailbox: 1})
	if err := d.Send(1, Packet{From: 0, Kind: KindPullRequest}); err != nil {
		t.Fatal(err)
	}
	waitCond(t, func() bool { return d.Health().Delivered == 1 }, "pull request fills the mailbox")
	if err := d.Send(1, Packet{From: 0, Kind: KindPush}); err != nil {
		t.Fatal(err)
	}
	waitCond(t, func() bool { return d.Health().MailboxDrops == 1 }, "push dropped at the full mailbox")
	<-d.Inbox(1)
	if err := d.Send(1, Packet{From: 0, Kind: KindPush}); err != nil {
		t.Fatal(err)
	}
	waitCond(t, func() bool {
		h := d.Health()
		return h.Delivered+h.Deduped == 2
	}, "second push accounted")
	if h := d.Health(); h.Delivered != 2 || h.Deduped != 0 || h.LedgerGap() != 0 {
		t.Errorf("delivered/deduped = %d/%d (LedgerGap %d), want 2/0: the dropped push marked the node",
			h.Delivered, h.Deduped, h.LedgerGap())
	}
}

// TestDaemonCrashWindowDropsBothDirections drives the one crash path: a
// fault plan's crash window over the daemon drops the crashed node's
// packets both ways and severs the link to it, which is redialled after
// the restart.
func TestDaemonCrashWindowDropsBothDirections(t *testing.T) {
	d, _ := newTestDaemon(t, DaemonConfig{Nodes: 2})
	plan, err := NewFaultPlan(d, FaultConfig{Crashes: []CrashWindow{{Node: 1, From: 1, Until: 2}}})
	if err != nil {
		t.Fatal(err)
	}
	send := func(from, to int) {
		t.Helper()
		if err := plan.Send(to, Packet{From: from, Kind: KindPullRequest}); err != nil {
			t.Fatal(err)
		}
	}
	send(0, 1) // epoch 0: connects the link to node 1
	waitCond(t, func() bool { return d.Health().Delivered == 1 }, "delivery before the crash")
	plan.AdvanceEpoch() // epoch 1: node 1 is down
	if c := d.open.Load(); c != 0 || d.links[1].hasConn() {
		t.Errorf("crash left the link to node 1 open: %d open connections", c)
	}
	send(0, 1)
	send(1, 0) // a crashed node sends nothing either
	if f := plan.Health().Faults; f.CrashDrops != 2 {
		t.Errorf("CrashDrops = %d, want 2", f.CrashDrops)
	}
	plan.AdvanceEpoch() // epoch 2: restarted
	send(0, 1)
	waitCond(t, func() bool { return d.Health().Delivered == 2 }, "delivery after restart")
	if h := plan.Health(); h.Redials != 1 || h.LedgerGap() != 0 {
		t.Errorf("redials %d, LedgerGap %d, want 1/0", h.Redials, h.LedgerGap())
	}
}

func TestDaemonDialFailureQuarantinesPeer(t *testing.T) {
	d, clk := newTestDaemon(t, DaemonConfig{Nodes: 2})
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
	if l := d.links[1]; !l.quarantined(clk.Now()) || l.fails.Load() == 0 {
		t.Errorf("peer 1: quarantined %v, fails %d, want quarantined with fails > 0", l.quarantined(clk.Now()), l.fails.Load())
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
	// The window ends on the daemon's clock, not the wall clock.
	clk.Advance(2 * d.cfg.backoffMax)
	if l := d.links[1]; l.quarantined(clk.Now()) || l.hasConn() {
		t.Errorf("peer 1: quarantined %v, connected %v after its window, want idle", l.quarantined(clk.Now()), l.hasConn())
	}
}

func TestDaemonRedialAfterSeveredConnection(t *testing.T) {
	d, _ := newTestDaemon(t, DaemonConfig{Nodes: 2})
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
	d, _ := newTestDaemon(t, DaemonConfig{Nodes: 3, maxConns: 1})
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
	if c := d.open.Load(); c > 1 {
		t.Errorf("%d open connections over budget 1", c)
	}
}

func TestDaemonMailboxBackpressure(t *testing.T) {
	d, _ := newTestDaemon(t, DaemonConfig{Nodes: 2, Mailbox: 1})
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
	// One frame, {"from":0,"kind":1} and its newline, is 20 bytes.
	d, _ := newTestDaemon(t, DaemonConfig{Nodes: 2, maxPacket: 16})
	if err := d.Send(1, Packet{From: 0, Kind: KindPush}); err != nil {
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
	d, err := NewDaemon(DaemonConfig{Nodes: 12, Mailbox: 4096, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewCluster(g, d, antiEntropy(2), 45)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = c.Close() }()
	if err := c.Insert(0); err != nil {
		t.Fatal(err)
	}
	ticks := tickUntilAllHeard(t, c, 40, nil)
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
		t.Error("always-push gossip produced zero dedup hits (heard bits inert?)")
	}
	// Persistent links: far fewer dials than packets.
	if h.Dials >= h.Sends {
		t.Errorf("dials %d >= sends %d: connections are not persistent", h.Dials, h.Sends)
	}
}

// TestHealthSnapshotCostIndependentOfNodes: a health snapshot is the
// ledger's counters alone, so the polls Cluster.settled makes on every
// tick allocate nothing and cost the same at any cluster size (the
// snapshot once built a row per peer, taking each link's connection lock).
func TestHealthSnapshotCostIndependentOfNodes(t *testing.T) {
	if raceEnabled {
		t.Skip("instrumentation allocates")
	}
	for _, n := range []int{64, 1024} {
		d, _ := newTestDaemon(t, DaemonConfig{Nodes: n})
		if allocs := testing.AllocsPerRun(20, func() { _ = d.Health() }); allocs != 0 {
			t.Errorf("%d nodes: Health allocates %v objects per snapshot, want 0", n, allocs)
		}
		_ = d.Close() // release the listeners before the next size
	}
}
