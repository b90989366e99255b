package phonecall

import (
	"fmt"
	"testing"
	"time"

	"regcast/internal/xrand"
)

// mustPanic runs f and fails unless it panics with exactly msg.
func mustPanic(t *testing.T, msg string, f func()) {
	t.Helper()
	defer func() {
		t.Helper()
		if got := recover(); got != msg {
			t.Errorf("recovered %v, want panic %q", got, msg)
		}
	}()
	f()
}

// TestRunTwicePanics: Run hands the receipt array to its Result, so a
// second Run — which used to compute a second result over the first one's
// receipts and cohorts, silently — would rewrite what the caller now owns.
func TestRunTwicePanics(t *testing.T) {
	g := testGraph(t, 64, 4, 3)
	e, err := NewEngine(Config{Topology: NewStatic(g), Protocol: pushProto{1, 20}, RNG: xrand.New(1)})
	if err != nil {
		t.Fatal(err)
	}
	first := e.Run()
	want := append([]int32(nil), first.InformedAt...)
	mustPanic(t, "phonecall: Run called twice", func() { e.Run() })
	for v := range want {
		if first.InformedAt[v] != want[v] {
			t.Fatalf("the refused second Run rewrote InformedAt[%d]: %d, was %d", v, first.InformedAt[v], want[v])
		}
	}

	m, err := NewMultiEngine(MultiConfig{
		Topology: NewStatic(g), Protocol: pushProto{1, 20}, Rounds: 20, RNG: xrand.New(1),
		Messages: []Message{{ID: 0, Origin: 2}},
	})
	if err != nil {
		t.Fatal(err)
	}
	m.Run()
	mustPanic(t, "phonecall: Run called twice", func() { m.Run() })
}

// TestRowBuffersBoundedByWorkers: the rows of a pull round live in a
// scratch borrowed for the length of one shard pass, so a run makes at most
// one per pass in flight — one inline, Workers under the pool, never one per
// shard (which would be the n×k array again) — and a schedule that never
// pulls makes none, dial memory or not.
func TestRowBuffersBoundedByWorkers(t *testing.T) {
	g := testGraph(t, 1024, 8, 5)
	for _, tc := range []struct {
		name  string
		cfg   Config
		pulls bool
	}{
		{"push-pull", Config{Protocol: pushPullProto{4, 30}}, true},
		{"pull", Config{Protocol: pullProto{2, 40}, MessageLossProb: 0.1}, true},
		{"push-only", Config{Protocol: pushProto{4, 30}}, false},
		{"push-only-avoid-recent", Config{Protocol: pushProto{1, 60}, AvoidRecent: 2}, false},
	} {
		for _, reference := range []bool{false, true} {
			for _, workers := range []int{0, 1, 4} {
				cfg := tc.cfg
				cfg.Topology, cfg.RNG = NewStatic(g), xrand.New(7)
				cfg.Workers, cfg.DisableFastPath = workers, reference
				e, err := NewEngine(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if res := e.Run(); !res.AllInformed {
					t.Fatalf("%s: broadcast incomplete", tc.name)
				}
				label := fmt.Sprintf("%s reference=%v workers=%d", tc.name, reference, workers)
				switch got, most := e.RowBuffers(), max(1, workers); {
				case !tc.pulls && got != 0:
					t.Errorf("%s: %d row scratches made for a schedule without pull scan", label, got)
				case tc.pulls && (got < 1 || got > most):
					t.Errorf("%s: %d row scratches made, want 1..%d (%d shards)", label, got, most, len(e.shards))
				}
				if e.allRows != nil {
					t.Errorf("%s: a single-message engine holds the full n×k row store", label)
				}
			}
		}
	}
}

// bitsetCheck is a PhaseObserver that, after every round's merge, counts
// the rounds that left a receipt bitset word set, and the sparse-frontier
// rounds, whose marks the merge must have erased too.
type bitsetCheck struct {
	eng      *Engine
	dirty    []int
	frontier int
}

func (c *bitsetCheck) OnRound(RoundMetrics) {}
func (c *bitsetCheck) OnInformed(int, int)  {}
func (c *bitsetCheck) OnRoundPhases(t int, _, _, _ time.Duration) {
	if _, dirty := c.eng.ReceiptBitsets(); dirty != 0 {
		c.dirty = append(c.dirty, t)
	}
	if c.eng.FrontierRound() == t {
		c.frontier++
	}
}

// TestReceiptBitsetsBoundedByWorkers: a shard pass ORs its deliveries into a
// receipt bitset borrowed for the length of the pass, so a run makes at most
// one per pass in flight — one inline, Workers under the pool, never one per
// shard — and the merge leaves every one of them clear for the next round,
// on an Engine and on the MultiEngine that shares them among its messages.
// A sparse-frontier round marks every bitset a pass can borrow
// (markFrontier) and makes none beyond that bound.
func TestReceiptBitsetsBoundedByWorkers(t *testing.T) {
	g := testGraph(t, 1024, 8, 5)
	for _, tc := range []struct {
		name     string
		cfg      Config
		multi    bool
		frontier bool // some round is a sparse-frontier round
	}{
		{"push-pull", Config{Protocol: pushPullProto{4, 30}}, false, false},
		{"pull-lossy", Config{Protocol: pullProto{2, 40}, MessageLossProb: 0.1}, false, false},
		{"push-word-kernel", Config{Protocol: pushProto{4, 30}}, false, true},
		{"push-sparse-frontier", Config{Protocol: pushProto{1, 40}}, false, true},
		{"push-dead-ids", Config{Topology: newViewTopo(g, 3, 64, 65, 700), Protocol: pushProto{2, 40}}, false, false},
		{"multi-push-pull", Config{Protocol: pushPullProto{3, 12}}, true, false},
	} {
		for _, workers := range []int{0, 1, 2, 4} {
			cfg := tc.cfg
			if cfg.Topology == nil {
				cfg.Topology = NewStatic(g)
			}
			cfg.RNG, cfg.Workers = xrand.New(7), workers
			check := &bitsetCheck{}
			var eng *Engine
			if tc.multi {
				m, err := NewMultiEngine(MultiConfig{
					Topology: cfg.Topology, Protocol: cfg.Protocol, Rounds: 16, RNG: cfg.RNG,
					Messages: []Message{{ID: 0, Origin: 1}, {ID: 1, Origin: 900, CreatedAt: 2}},
				})
				if err != nil {
					t.Fatal(err)
				}
				// MultiConfig has no Workers or Observer: set them on its engine.
				eng = m.eng
				eng.workers, eng.phases = workers, check
				eng.nextFree = make(chan []uint64, max(1, workers))
				check.eng = eng
				m.Run()
			} else {
				cfg.Observer = check
				e, err := NewEngine(cfg)
				if err != nil {
					t.Fatal(err)
				}
				eng, check.eng = e, e
				e.Run()
			}
			label := fmt.Sprintf("%s workers=%d", tc.name, workers)
			if made, _ := eng.ReceiptBitsets(); made < 1 || made > max(1, workers) {
				t.Errorf("%s: %d receipt bitsets made, want 1..%d (%d shards)", label, made, max(1, workers), len(eng.shards))
			}
			if len(check.dirty) > 0 {
				t.Errorf("%s: rounds %v left a receipt bitset word set", label, check.dirty)
			}
			if (check.frontier > 0) != tc.frontier {
				t.Errorf("%s: %d sparse-frontier rounds, want some: %v", label, check.frontier, tc.frontier)
			}
		}
	}
}

// TestMultiEngineKeepsFullRows: the later messages of a round ride the
// channels its first message sampled, so a MultiEngine — and nothing else,
// see the test above — keeps every node's row past the shard pass.
func TestMultiEngineKeepsFullRows(t *testing.T) {
	g := testGraph(t, 256, 6, 9)
	proto := pushPullProto{3, 12}
	m, err := NewMultiEngine(MultiConfig{
		Topology: NewStatic(g), Protocol: proto, Rounds: 16, RNG: xrand.New(2),
		Messages: []Message{{ID: 0, Origin: 1}, {ID: 1, Origin: 200, CreatedAt: 2}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := len(m.eng.allRows), 256*proto.Choices(); got != want {
		t.Fatalf("MultiEngine row store has %d slots, want n×k = %d", got, want)
	}
	res := m.Run()
	if got := m.eng.RowBuffers(); got != 0 {
		t.Errorf("MultiEngine borrowed %d row scratches beside its full store", got)
	}
	for _, mr := range res.PerMessage {
		if !mr.AllInformed {
			t.Errorf("message %d reached %d/256 nodes", mr.Message.ID, mr.Informed)
		}
	}
}

// phaseLog records the PhaseObserver callbacks in order.
type phaseLog struct {
	events []string
	total  time.Duration
}

func (p *phaseLog) OnRound(rm RoundMetrics) {
	p.events = append(p.events, fmt.Sprintf("round %d", rm.Round))
}
func (p *phaseLog) OnInformed(int, int) {}
func (p *phaseLog) OnRoundPhases(t int, tables, passes, merge time.Duration) {
	p.events = append(p.events, fmt.Sprintf("phases %d", t))
	if tables < 0 || passes < 0 || merge < 0 {
		p.events = append(p.events, fmt.Sprintf("negative phase in round %d: %v %v %v", t, tables, passes, merge))
	}
	p.total += tables + passes + merge
}

// TestPhaseObserverStamps: an observer that implements PhaseObserver is
// told every round's three step durations, before that round's OnRound,
// and they add up to no more than the run took; the trace does not move.
func TestPhaseObserverStamps(t *testing.T) {
	g := testGraph(t, 512, 8, 11)
	cfg := Config{Topology: NewStatic(g), Protocol: pushPullProto{2, 10}, MessageLossProb: 0.2}
	cfg.RNG = xrand.New(3)
	plain, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{0, 4} {
		log := &phaseLog{}
		cfg.RNG, cfg.Observer, cfg.Workers = xrand.New(3), log, workers
		start := time.Now()
		timed, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		wall := time.Since(start)
		assertSameTrace(t, trace{Result: plain}, trace{Result: timed})
		var want []string
		for r := 1; r <= 10; r++ {
			want = append(want, fmt.Sprintf("phases %d", r), fmt.Sprintf("round %d", r))
		}
		if fmt.Sprint(log.events) != fmt.Sprint(want) {
			t.Errorf("workers=%d: callbacks %v, want %v", workers, log.events, want)
		}
		if log.total <= 0 || log.total > wall {
			t.Errorf("workers=%d: phases sum to %v of a %v run", workers, log.total, wall)
		}
	}
}
