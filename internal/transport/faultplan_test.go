package transport

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"slices"
	"testing"
	"time"
)

// newPlan wraps a fresh in-memory transport; Cleanup closes the plan
// (and through it the inner transport).
func newPlan(t *testing.T, n int, cfg FaultConfig) *FaultPlan {
	t.Helper()
	inner, err := NewInMem(n, 4096)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := NewFaultPlan(inner, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = plan.Close() })
	return plan
}

func TestFaultConfigValidation(t *testing.T) {
	inner, err := NewInMem(2, 8)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = inner.Close() }()
	bad := []FaultConfig{
		{Drop: -0.1},
		{Drop: math.NaN()},
		{Duplicate: 1.5},
		{DelayProb: -1},
		{Delay: -time.Second},
		{Partitions: []PartitionWindow{{From: 5, Until: 2}}},
		{Crashes: []CrashWindow{{Node: 0, From: 3, Until: 1}}},
	}
	for i, cfg := range bad {
		if _, err := NewFaultPlan(inner, cfg); err == nil {
			t.Errorf("bad config %d accepted: %+v", i, cfg)
		}
	}
	if _, err := NewFaultPlan(nil, FaultConfig{}); err == nil {
		t.Error("nil inner transport accepted")
	}
}

// TestFaultPlanDeterministicSchedule is the acceptance criterion: two
// plans with the same seed, fed identical per-pair packet sequences at
// identical epochs, must record identical fault schedules — decisions are
// pure functions, immune to goroutine interleaving.
func TestFaultPlanDeterministicSchedule(t *testing.T) {
	cfg := FaultConfig{
		Seed:        1234,
		Drop:        0.3,
		Duplicate:   0.15,
		DelayProb:   0.1,
		Delay:       time.Millisecond,
		Partitions:  []PartitionWindow{{From: 2, Until: 4, A: []int{0, 1}}},
		Crashes:     []CrashWindow{{Node: 3, From: 1, Until: 3}},
		recordTrace: true,
	}
	feed := func(p *FaultPlan) {
		for epoch := 0; epoch < 6; epoch++ {
			for i := 0; i < 4; i++ {
				for from := 0; from < 4; from++ {
					_ = p.Send((from+1+i)%4, Packet{From: from, Kind: KindPush})
				}
			}
			p.AdvanceEpoch()
		}
		_ = p.Close()
	}
	a, b := newPlan(t, 4, cfg), newPlan(t, 4, cfg)
	feed(a)
	feed(b)
	ta, tb := a.Trace(), b.Trace()
	if len(ta) == 0 {
		t.Fatal("empty fault trace")
	}
	if !reflect.DeepEqual(ta, tb) {
		t.Fatalf("same-seed fault schedules differ: %d vs %d decisions", len(ta), len(tb))
	}
	if a.Stats() != b.Stats() {
		t.Errorf("same-seed fault stats differ: %+v vs %+v", a.Stats(), b.Stats())
	}
	// The schedule must actually exercise multiple fault kinds.
	kinds := map[string]bool{}
	for _, d := range ta {
		kinds[d.Action] = true
	}
	for _, want := range []string{"pass", "drop", "partition-drop", "crash-drop"} {
		if !kinds[want] {
			t.Errorf("trace never recorded %q (kinds seen: %v)", want, kinds)
		}
	}
	// A different seed must yield a different schedule.
	cfg2 := cfg
	cfg2.Seed = 4321
	c := newPlan(t, 4, cfg2)
	feed(c)
	if reflect.DeepEqual(ta, c.Trace()) {
		t.Error("different seeds produced identical fault schedules")
	}
}

func TestFaultPlanDropRate(t *testing.T) {
	plan := newPlan(t, 2, FaultConfig{Seed: 7, Drop: 0.5})
	const total = 2000
	for i := 0; i < total; i++ {
		if err := plan.Send(1, Packet{From: 0, Kind: KindPullRequest}); err != nil {
			t.Fatal(err)
		}
	}
	s := plan.Stats()
	if s.In != total || s.Dropped+s.Forwarded != total {
		t.Fatalf("stats don't partition: %+v", s)
	}
	if s.Dropped < 850 || s.Dropped > 1150 {
		t.Errorf("dropped %d of %d at p=0.5, outside [850,1150]", s.Dropped, total)
	}
}

func TestFaultPlanDuplicate(t *testing.T) {
	plan := newPlan(t, 2, FaultConfig{Seed: 7, Duplicate: 1})
	const total = 10
	for i := 0; i < total; i++ {
		if err := plan.Send(1, Packet{From: 0, Kind: KindPullRequest}); err != nil {
			t.Fatal(err)
		}
	}
	s := plan.Stats()
	if s.Duplicated != total || s.Forwarded != 2*total {
		t.Errorf("duplicated/forwarded = %d/%d, want %d/%d", s.Duplicated, s.Forwarded, total, 2*total)
	}
}

func TestFaultPlanDelay(t *testing.T) {
	plan := newPlan(t, 2, FaultConfig{Seed: 7, DelayProb: 1, Delay: 5 * time.Millisecond})
	const total = 3
	for i := 0; i < total; i++ {
		if err := plan.Send(1, Packet{From: 0, Kind: KindPullRequest}); err != nil {
			t.Fatal(err)
		}
	}
	// Close waits out the in-flight delayed forwards.
	if err := plan.Close(); err != nil {
		t.Fatal(err)
	}
	s := plan.Stats()
	if s.Delayed != total || s.Forwarded != total {
		t.Errorf("delayed/forwarded = %d/%d, want %d/%d", s.Delayed, s.Forwarded, total, total)
	}
}

func TestFaultPlanPartitionWindow(t *testing.T) {
	plan := newPlan(t, 4, FaultConfig{
		Seed:       7,
		Partitions: []PartitionWindow{{From: 0, Until: 2, A: []int{0, 1}}},
	})
	send := func(from, to int) {
		t.Helper()
		if err := plan.Send(to, Packet{From: from, Kind: KindPullRequest}); err != nil {
			t.Fatal(err)
		}
	}
	send(0, 2) // crosses the cut: drop
	send(2, 0) // crosses the other way: drop
	send(0, 1) // same side: pass
	send(2, 3) // same side: pass
	if s := plan.Stats(); s.PartitionDrops != 2 || s.Forwarded != 2 {
		t.Errorf("partitionDrops/forwarded = %d/%d, want 2/2", s.PartitionDrops, s.Forwarded)
	}
	plan.AdvanceEpoch()
	plan.AdvanceEpoch() // epoch 2: healed
	send(0, 2)
	if s := plan.Stats(); s.PartitionDrops != 2 || s.Forwarded != 3 {
		t.Errorf("after heal: partitionDrops/forwarded = %d/%d, want 2/3", s.PartitionDrops, s.Forwarded)
	}
}

// killerInMem records which peers had their connections severed — the
// connKiller hook a crash window fires on the inner transport.
type killerInMem struct {
	*InMem
	killed []int
}

func (k *killerInMem) DropPeerConns(id int) { k.killed = append(k.killed, id) }

func TestFaultPlanCrashWindow(t *testing.T) {
	mem, err := NewInMem(3, 64)
	if err != nil {
		t.Fatal(err)
	}
	inner := &killerInMem{InMem: mem}
	plan, err := NewFaultPlan(inner, FaultConfig{
		Seed:    7,
		Crashes: []CrashWindow{{Node: 1, From: 1, Until: 3}},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = plan.Close() }()
	send := func(from, to int) {
		t.Helper()
		if err := plan.Send(to, Packet{From: from, Kind: KindPullRequest}); err != nil {
			t.Fatal(err)
		}
	}
	send(0, 1) // epoch 0: before the crash, passes
	plan.AdvanceEpoch()
	if !reflect.DeepEqual(inner.killed, []int{1}) {
		t.Errorf("crash start severed conns for %v, want [1]", inner.killed)
	}
	send(0, 1) // to the crashed node: drop
	send(1, 2) // from the crashed node: drop
	send(0, 2) // uninvolved pair: pass
	plan.AdvanceEpoch()
	plan.AdvanceEpoch() // epoch 3: restarted
	send(0, 1)
	s := plan.Stats()
	if s.CrashDrops != 2 || s.Forwarded != 3 {
		t.Errorf("crashDrops/forwarded = %d/%d, want 2/3", s.CrashDrops, s.Forwarded)
	}
}

func TestFaultPlanSendAfterClose(t *testing.T) {
	plan := newPlan(t, 2, FaultConfig{Seed: 1})
	if err := plan.Close(); err != nil {
		t.Fatal(err)
	}
	if err := plan.Send(1, Packet{From: 0}); !errors.Is(err, ErrClosed) {
		t.Errorf("Send after Close = %v, want ErrClosed", err)
	}
	if err := plan.Close(); err != nil {
		t.Error("double close errored")
	}
}

// TestChaosRunReproducibleFromSeed: two chaos runs of one seed over real
// sockets, with drops and duplicates, make the same fault decisions and
// end in the same state. A node's push (sent from Tick) and its pull reply
// (sent from its process loop) to one peer race; each kind has its own
// sequence per pair, so which wins takes no coin from the other. Delay is
// left out: when a delayed packet lands is wall-clock.
func TestChaosRunReproducibleFromSeed(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos runs in -short mode")
	}
	const n, deg, k, ticks = 32, 6, 3, 10
	type outcome struct {
		trace []string
		heard []int
		tx    int64
		stats FaultStats
	}
	run := func() outcome {
		d, err := NewDaemon(DaemonConfig{Nodes: n, Mailbox: 8192, Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		plan, err := NewFaultPlan(d, FaultConfig{Seed: 77, Drop: 0.2, Duplicate: 0.1, recordTrace: true})
		if err != nil {
			t.Fatal(err)
		}
		c, err := NewCluster(gossipGraph(t, n, deg), plan, antiEntropy(k), 46)
		if err != nil {
			t.Fatal(err)
		}
		defer func() { _ = c.Close() }()
		if err := c.Insert(0); err != nil {
			t.Fatal(err)
		}
		for range ticks {
			plan.AdvanceEpoch()
			tick(t, c)
		}
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
		var out outcome
		// Decisions are recorded in goroutine order; the schedule is the set.
		for _, d := range plan.Trace() {
			out.trace = append(out.trace, fmt.Sprintf("%+v", d))
		}
		slices.Sort(out.trace)
		for v := range n {
			out.heard = append(out.heard, c.HeardAt(v))
		}
		out.tx, out.stats = c.Transmissions(), plan.Stats()
		return out
	}
	a, b := run(), run()
	if !slices.Equal(a.trace, b.trace) {
		t.Errorf("same-seed fault schedules differ: %d vs %d decisions", len(a.trace), len(b.trace))
	}
	if !slices.Equal(a.heard, b.heard) || a.tx != b.tx || a.stats != b.stats {
		t.Errorf("same-seed runs differ: heardAt\n %v\n %v\ntransmissions %d/%d, faults\n %+v\n %+v", a.heard, b.heard, a.tx, b.tx, a.stats, b.stats)
	}
	if a.stats.Dropped == 0 || a.stats.Duplicated == 0 {
		t.Errorf("a fault regime never fired: %+v", a.stats)
	}
}
