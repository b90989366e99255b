package transport

import (
	"errors"
	"math"
	"reflect"
	"testing"
	"time"

	"regcast/internal/graph"
	"regcast/internal/xrand"
)

// antiEntropy is the tests' schedule: every informed node pushes and
// answers pulls in every tick, dialling k peers.
type antiEntropy int

func (antiEntropy) Name() string           { return "anti-entropy" }
func (k antiEntropy) Choices() int         { return int(k) }
func (antiEntropy) Horizon() int           { return math.MaxInt32 }
func (antiEntropy) SendPush(_, _ int) bool { return true }
func (antiEntropy) SendPull(_, _ int) bool { return true }

// stepWait returns the budget for one blocking wait, honouring the test
// binary's -timeout through t.Deadline: the default is clamped so a stuck
// wait fails this test with slack before the whole binary is killed.
func stepWait(t *testing.T, def time.Duration) time.Duration {
	t.Helper()
	if dl, ok := t.Deadline(); ok {
		if remain := time.Until(dl) - 250*time.Millisecond; remain < def {
			if remain < 10*time.Millisecond {
				return 10 * time.Millisecond
			}
			return remain
		}
	}
	return def
}

// waitCond polls cond until it holds or the deadline-aware budget runs
// out, failing the test with msg on timeout.
func waitCond(t *testing.T, cond func() bool, msg string) {
	t.Helper()
	deadline := time.Now().Add(stepWait(t, 2*time.Second))
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("condition not reached: %s", msg)
}

func TestKindString(t *testing.T) {
	if KindPush.String() != "push" || KindPullRequest.String() != "pull-request" ||
		KindPullReply.String() != "pull-reply" {
		t.Error("kind names wrong")
	}
	if Kind(99).String() == "" {
		t.Error("unknown kind empty")
	}
}

func TestInMemValidation(t *testing.T) {
	if _, err := NewInMem(0, 8); err == nil {
		t.Error("n=0 accepted")
	}
	if _, err := NewInMem(4, 0); err == nil {
		t.Error("mailbox=0 accepted")
	}
}

func TestInMemSendReceive(t *testing.T) {
	tr, err := NewInMem(3, 8)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = tr.Close() }()
	if err := tr.Send(2, Packet{From: 0, Kind: KindPush}); err != nil {
		t.Fatal(err)
	}
	select {
	case p := <-tr.Inbox(2):
		if p.From != 0 || p.Kind != KindPush {
			t.Errorf("packet mangled: %+v", p)
		}
	case <-time.After(stepWait(t, time.Second)):
		t.Fatal("packet not delivered")
	}
}

func TestInMemSendErrors(t *testing.T) {
	tr, err := NewInMem(2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Send(5, Packet{}); err == nil {
		t.Error("out-of-range target accepted")
	}
	// Overfill: second send is dropped silently, counted in the ledger.
	if err := tr.Send(0, Packet{}); err != nil {
		t.Fatal(err)
	}
	if err := tr.Send(0, Packet{}); err != nil {
		t.Fatal(err)
	}
	if h := tr.Health(); h.Sends != 2 || h.Delivered != 1 || h.MailboxDrops != 1 || h.LedgerGap() != 0 {
		t.Errorf("ledger = sends %d delivered %d mailboxDrops %d, want 2/1/1", h.Sends, h.Delivered, h.MailboxDrops)
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	if err := tr.Send(0, Packet{}); !errors.Is(err, ErrClosed) {
		t.Errorf("send after close = %v, want ErrClosed", err)
	}
	if err := tr.Close(); err != nil {
		t.Error("double close errored")
	}
}

func TestInMemCloseClosesInboxes(t *testing.T) {
	tr, err := NewInMem(1, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	if _, open := <-tr.Inbox(0); open {
		t.Error("inbox still open after Close")
	}
}

func gossipGraph(t *testing.T, n, d int) *graph.Graph {
	t.Helper()
	g, err := graph.RandomRegular(n, d, xrand.New(7))
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestClusterValidation(t *testing.T) {
	g := gossipGraph(t, 8, 4)
	tr, err := NewInMem(8, 64)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = tr.Close() }()
	if _, err := NewCluster(nil, tr, antiEntropy(2), 1); err == nil {
		t.Error("nil graph accepted")
	}
	if _, err := NewCluster(g, nil, antiEntropy(2), 1); err == nil {
		t.Error("nil transport accepted")
	}
	if _, err := NewCluster(g, tr, nil, 1); err == nil {
		t.Error("nil protocol accepted")
	}
	if _, err := NewCluster(g, tr, antiEntropy(0), 1); err == nil {
		t.Error("k=0 accepted")
	}
}

// tick runs the cluster's next tick and waits for it to fall silent; a
// tick that does not settle fails the test, since every transport here
// settles.
func tick(t *testing.T, c *Cluster) {
	t.Helper()
	if err := c.Tick(int(c.now.Load()) + 1); err != nil {
		t.Fatal(err)
	}
	if c.Settle(stepWait(t, 5*time.Second)) {
		t.Fatalf("tick did not settle: %+v", c.tr.Health())
	}
}

// heardCount returns how many nodes hold the rumour.
func heardCount(c *Cluster) int {
	count := 0
	for v := range c.nodes {
		if c.HeardAt(v) != unheard {
			count++
		}
	}
	return count
}

// tickUntilAllHeard ticks the cluster until every node holds the rumour,
// running advance (when non-nil) before each tick, and returns the number
// of ticks used.
func tickUntilAllHeard(t *testing.T, c *Cluster, maxTicks int, advance func()) int {
	t.Helper()
	for n := 1; n <= maxTicks; n++ {
		if advance != nil {
			advance()
		}
		tick(t, c)
		if heardCount(c) == len(c.nodes) {
			return n
		}
	}
	t.Fatalf("rumour reached %d/%d nodes after %d ticks", heardCount(c), len(c.nodes), maxTicks)
	return 0
}

func TestGossipOverInMem(t *testing.T) {
	g := gossipGraph(t, 32, 6)
	tr, err := NewInMem(32, 4096)
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewCluster(g, tr, antiEntropy(2), 42)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = c.Close() }()
	if err := c.Insert(0); err != nil {
		t.Fatal(err)
	}
	ticks := tickUntilAllHeard(t, c, 40, nil)
	t.Logf("rumour reached all 32 nodes in %d ticks, %d transmissions", ticks, c.Transmissions())
	if c.Transmissions() == 0 {
		t.Error("no transmissions counted")
	}
	if at := c.HeardAt(31); at < 1 || at > ticks {
		t.Errorf("node 31 heard the rumour in tick %d, want one of 1..%d", at, ticks)
	}
}

func TestInsertValidation(t *testing.T) {
	g := gossipGraph(t, 8, 4)
	tr, err := NewInMem(8, 64)
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewCluster(g, tr, antiEntropy(1), 2)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = c.Close() }()
	if err := c.Insert(-1); err == nil {
		t.Error("negative node accepted")
	}
	if err := c.Insert(99); err == nil {
		t.Error("out-of-range node accepted")
	}
	if err := c.Insert(0); err != nil {
		t.Fatal(err)
	}
}

// TestSettleMatchesClosedLedger is Settle's exactness contract: once it
// returns without a timeout nothing is moving, so the ledger read then
// equals the ledger after Close — on the in-memory fake, the daemon, and
// a fault plan with drops, duplicates and delays over the daemon.
func TestSettleMatchesClosedLedger(t *testing.T) {
	daemon := func(t *testing.T) Transport {
		d, err := NewDaemon(DaemonConfig{Nodes: 16, Mailbox: 4096, Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	for _, tc := range []struct {
		name string
		tr   func(t *testing.T) Transport
	}{
		{"inmem", func(t *testing.T) Transport {
			tr, err := NewInMem(16, 4096)
			if err != nil {
				t.Fatal(err)
			}
			return tr
		}},
		{"daemon", daemon},
		{"faultplan", func(t *testing.T) Transport {
			plan, err := NewFaultPlan(daemon(t), FaultConfig{
				Seed: 4, Drop: 0.2, Duplicate: 0.1, DelayProb: 0.2, Delay: time.Millisecond,
			})
			if err != nil {
				t.Fatal(err)
			}
			return plan
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tr := tc.tr(t)
			c, err := NewCluster(gossipGraph(t, 16, 4), tr, antiEntropy(2), 48)
			if err != nil {
				t.Fatal(err)
			}
			defer func() { _ = c.Close() }()
			if err := c.Insert(0); err != nil {
				t.Fatal(err)
			}
			tickUntilAllHeard(t, c, 40, nil)
			settled := tr.Health()
			if settled.InFlight() != 0 || settled.LedgerGap() != 0 {
				t.Errorf("settled ledger: InFlight %d, LedgerGap %d, want 0/0", settled.InFlight(), settled.LedgerGap())
			}
			if err := c.Close(); err != nil {
				t.Fatal(err)
			}
			if got, want := settled, tr.Health(); !reflect.DeepEqual(got, want) {
				t.Errorf("ledger at Settle differs from the closed ledger:\n settled %+v\n closed  %+v", got, want)
			}
		})
	}
}

// TestSettleReportsDeadline: a delay that outlasts the deadline leaves
// packets in flight, and Settle says so instead of returning early.
func TestSettleReportsDeadline(t *testing.T) {
	inner, err := NewInMem(8, 64)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := NewFaultPlan(inner, FaultConfig{Seed: 1, DelayProb: 1, Delay: 100 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewCluster(gossipGraph(t, 8, 4), plan, antiEntropy(1), 5)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = c.Close() }()
	if err := c.Insert(0); err != nil {
		t.Fatal(err)
	}
	if err := c.Tick(1); err != nil {
		t.Fatal(err)
	}
	if in := plan.Health().InFlight(); in == 0 {
		t.Error("InFlight = 0 while delayed packets are pending")
	}
	if !c.Settle(time.Millisecond) {
		t.Fatalf("Settle returned with every packet delayed: %+v", plan.Health())
	}
	if c.Settle(stepWait(t, 5*time.Second)) {
		t.Errorf("Settle timed out after the delays ended: %+v", plan.Health())
	}
}

// silent is a schedule that never sends: Tick only draws its dial picks.
type silent int

func (silent) Name() string           { return "silent" }
func (k silent) Choices() int         { return int(k) }
func (silent) Horizon() int           { return math.MaxInt32 }
func (silent) SendPush(_, _ int) bool { return false }
func (silent) SendPull(_, _ int) bool { return false }

// TestTickReusesDialPicks: Tick draws every node's picks into one slice
// and scratch the cluster owns, so a tick that sends nothing allocates
// nothing.
func TestTickReusesDialPicks(t *testing.T) {
	if raceEnabled {
		t.Skip("instrumentation allocates")
	}
	for _, n := range []int{64, 1024} {
		tr, err := NewInMem(n, 8)
		if err != nil {
			t.Fatal(err)
		}
		c, err := NewCluster(gossipGraph(t, n, 8), tr, silent(4), 1)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Insert(0); err != nil {
			t.Fatal(err)
		}
		tk := 0
		allocs := testing.AllocsPerRun(20, func() {
			tk++
			if err := c.Tick(tk); err != nil {
				t.Fatal(err)
			}
		})
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
		if allocs != 0 {
			t.Errorf("n=%d: Tick allocated %.0f times per tick, want 0", n, allocs)
		}
	}
}
