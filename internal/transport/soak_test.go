package transport

import (
	"encoding/json"
	"testing"
	"time"
)

// TestChaosSoak is the daemon's resilience test: always-push-and-pull
// gossip over the resilient daemon with deterministic fault injection. For every
// fault regime the rumour must still reach all nodes, and the combined
// plan+daemon ledger must balance exactly — every packet handed to Send
// ends in delivered, deduped, or an accounted drop bucket.
func TestChaosSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos soak in -short mode")
	}
	const (
		n, deg, k = 16, 4, 2
		maxTicks  = 80
	)
	half := make([]int, n/2)
	for i := range half {
		half[i] = i
	}
	cases := []struct {
		name      string
		cfg       FaultConfig
		wantFault func(FaultStats) bool // the regime must actually fire
	}{
		{
			name:      "drop20",
			cfg:       FaultConfig{Seed: 90, Drop: 0.20},
			wantFault: func(s FaultStats) bool { return s.Dropped > 0 },
		},
		{
			name:      "delay",
			cfg:       FaultConfig{Seed: 91, DelayProb: 0.30, Delay: 2 * time.Millisecond},
			wantFault: func(s FaultStats) bool { return s.Delayed > 0 },
		},
		{
			name:      "partition-heal",
			cfg:       FaultConfig{Seed: 92, Partitions: []PartitionWindow{{From: 1, Until: 5, A: half}}},
			wantFault: func(s FaultStats) bool { return s.PartitionDrops > 0 },
		},
		{
			name:      "crash-restart",
			cfg:       FaultConfig{Seed: 93, Crashes: []CrashWindow{{Node: 3, From: 1, Until: 4}}},
			wantFault: func(s FaultStats) bool { return s.CrashDrops > 0 },
		},
		{
			name: "everything",
			cfg: FaultConfig{
				Seed: 94, Drop: 0.20, Duplicate: 0.05, Reorder: 0.10,
				DelayProb: 0.10, Delay: time.Millisecond,
				Partitions: []PartitionWindow{{From: 2, Until: 4, A: half}},
				Crashes:    []CrashWindow{{Node: 5, From: 1, Until: 3}},
			},
			wantFault: func(s FaultStats) bool { return s.Dropped > 0 && s.Duplicated > 0 },
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			g := gossipGraph(t, n, deg)
			d, err := NewDaemon(DaemonConfig{
				Nodes: n, Mailbox: 8192, Seed: 5,
				backoffBase: 5 * time.Millisecond, backoffMax: 25 * time.Millisecond,
			})
			if err != nil {
				t.Fatal(err)
			}
			plan, err := NewFaultPlan(d, tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			c, err := NewCluster(g, plan, antiEntropy(k), 46)
			if err != nil {
				t.Fatal(err)
			}
			defer func() { _ = c.Close() }()
			const rumorID = "chaos-rumor"
			if err := c.Insert(0, Rumor{ID: rumorID, Payload: "survives faults"}); err != nil {
				t.Fatal(err)
			}
			// One tick = one fault epoch; each tick settles before the next
			// epoch severs anything, so no frame is on a severed wire.
			ticks := tickUntilAllHeard(t, c, maxTicks, plan.AdvanceEpoch)
			if err := c.Close(); err != nil { // closes plan, then daemon
				t.Fatal(err)
			}
			h := plan.Health()
			js, _ := json.Marshal(h)
			t.Logf("%s: all %d nodes informed in %d ticks; health=%s", tc.name, n, ticks, js)
			if h.Faults == nil {
				t.Fatal("fault ledger missing from health snapshot")
			}
			if !tc.wantFault(*h.Faults) {
				t.Errorf("%s: fault regime never fired: %+v", tc.name, *h.Faults)
			}
			// The ledger: sent = delivered + deduped + dropped, exactly.
			if gap := h.LedgerGap(); gap != 0 {
				t.Errorf("%s: LedgerGap = %d, want 0 (faults %+v)", tc.name, gap, *h.Faults)
			}
			if h.WireLost() != 0 {
				t.Errorf("%s: WireLost = %d, want 0 (links are severed only between settled ticks)", tc.name, h.WireLost())
			}
		})
	}
}

// TestChaosSoakCrashExercisesRedial pins the crash-restart acceptance
// detail: severing the links to the crashed node forces a redial after
// the restart. Tick 1 runs fault-free, so node 2's pull replies open the
// link to it; from tick 4 on its pull replies redial it.
func TestChaosSoakCrashExercisesRedial(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos soak in -short mode")
	}
	g := gossipGraph(t, 8, 4)
	d, err := NewDaemon(DaemonConfig{
		Nodes: 8, Mailbox: 4096, Seed: 5,
		backoffBase: 5 * time.Millisecond, backoffMax: 25 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	plan, err := NewFaultPlan(d, FaultConfig{
		Seed:    95,
		Crashes: []CrashWindow{{Node: 2, From: 2, Until: 4}},
	})
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewCluster(g, plan, antiEntropy(2), 47)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = c.Close() }()
	if err := c.Insert(0, Rumor{ID: "redial-rumor"}); err != nil {
		t.Fatal(err)
	}
	for n := 1; n <= 4; n++ { // through the restart epoch
		plan.AdvanceEpoch()
		tick(t, c)
	}
	tickUntilAllHeard(t, c, 36, plan.AdvanceEpoch)
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	h := plan.Health()
	if h.Redials == 0 {
		t.Errorf("crash-restart exercised zero redials (dials %d)", h.Dials)
	}
	if gap := h.LedgerGap(); gap != 0 || h.WireLost() != 0 {
		t.Errorf("LedgerGap = %d, WireLost = %d, want 0/0", gap, h.WireLost())
	}
}
