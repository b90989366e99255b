package overlay

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"regcast/internal/core"
	"regcast/internal/graph"
	"regcast/internal/phonecall"
	"regcast/internal/spectral"
	"regcast/internal/xrand"
)

func newTestOverlay(t *testing.T, n, d, headroom int, seed uint64) *Overlay {
	t.Helper()
	o, err := New(n, d, headroom, xrand.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	return o
}

func TestNewValidation(t *testing.T) {
	rng := xrand.New(1)
	if _, err := New(100, 5, 10, rng); err == nil {
		t.Error("odd degree accepted")
	}
	if _, err := New(100, 2, 10, rng); err == nil {
		t.Error("degree 2 accepted")
	}
	if _, err := New(100, 6, -1, rng); err == nil {
		t.Error("negative headroom accepted")
	}
	if _, err := New(4, 6, 0, rng); err == nil {
		t.Error("n <= d accepted")
	}
}

func TestInitialInvariants(t *testing.T) {
	o := newTestOverlay(t, 100, 6, 20, 2)
	if err := o.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if o.AliveCount() != 100 || o.NumNodes() != 120 {
		t.Errorf("alive=%d capacity=%d", o.AliveCount(), o.NumNodes())
	}
}

func TestJoinPreservesRegularity(t *testing.T) {
	o := newTestOverlay(t, 50, 6, 10, 3)
	for i := 0; i < 10; i++ {
		id, err := o.Join()
		if err != nil {
			t.Fatal(err)
		}
		if !o.Alive(id) {
			t.Fatalf("joined peer %d not alive", id)
		}
		if o.Degree(id) != 6 {
			t.Fatalf("joined peer %d has degree %d", id, o.Degree(id))
		}
	}
	if o.AliveCount() != 60 {
		t.Errorf("alive = %d, want 60", o.AliveCount())
	}
	if err := o.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestJoinExhaustsCapacity(t *testing.T) {
	o := newTestOverlay(t, 20, 4, 1, 4)
	if _, err := o.Join(); err != nil {
		t.Fatal(err)
	}
	if _, err := o.Join(); err == nil {
		t.Error("join beyond capacity accepted")
	}
}

func TestLeavePreservesRegularity(t *testing.T) {
	o := newTestOverlay(t, 60, 6, 0, 5)
	for i := 0; i < 15; i++ {
		// Leave a deterministic-ish alive peer.
		v := -1
		for u := 0; u < o.NumNodes(); u++ {
			if o.Alive(u) {
				v = u
				break
			}
		}
		if err := o.Leave(v); err != nil {
			t.Fatal(err)
		}
		if o.Alive(v) {
			t.Fatalf("left peer %d still alive", v)
		}
	}
	if o.AliveCount() != 45 {
		t.Errorf("alive = %d, want 45", o.AliveCount())
	}
	if err := o.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestLeaveRejectsDeadAndTiny(t *testing.T) {
	o := newTestOverlay(t, 10, 4, 0, 6)
	if err := o.Leave(-1); err == nil {
		t.Error("Leave(-1) accepted")
	}
	// Shrink to the minimum then expect refusal.
	for {
		err := o.Leave(firstAlive(o))
		if err != nil {
			break
		}
	}
	if o.AliveCount() < 5 { // d+1 = 5
		t.Errorf("overlay shrank to %d < d+1", o.AliveCount())
	}
}

func firstAlive(o *Overlay) int {
	for v := 0; v < o.NumNodes(); v++ {
		if o.Alive(v) {
			return v
		}
	}
	return -1
}

func TestLeaveThenJoinRecyclesIDs(t *testing.T) {
	o := newTestOverlay(t, 30, 4, 0, 7)
	victim := firstAlive(o)
	if err := o.Leave(victim); err != nil {
		t.Fatal(err)
	}
	id, err := o.Join()
	if err != nil {
		t.Fatal(err)
	}
	if id != victim {
		t.Errorf("join got id %d, want recycled %d", id, victim)
	}
	if err := o.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestFreeListPopsInStackOrder: the free ids threaded through the dead
// rows are popped in the order of the free-id stack the overlay kept
// before (departed ids last-in first-out, then the never-used ids
// ascending), which is what keeps every churn draw where it was. A scripted
// run of leaves and joins, capacity exhaustion included, is checked
// against that stack after every operation.
func TestFreeListPopsInStackOrder(t *testing.T) {
	const n, d, headroom = 40, 4, 6
	o := newTestOverlay(t, n, d, headroom, 12)
	var stack []int32 // the old stack, bottom first
	for id := n + headroom - 1; id >= n; id-- {
		stack = append(stack, int32(id))
	}
	script := xrand.New(13)
	recycled, refused := 0, 0
	for op := 0; op < 400; op++ {
		if script.Bool(0.5) {
			v := script.IntN(o.NumNodes())
			if !o.Alive(v) {
				continue
			}
			if err := o.Leave(v); err != nil {
				t.Fatal(err)
			}
			stack = append(stack, int32(v))
		} else {
			id, err := o.Join()
			if len(stack) == 0 {
				if err == nil {
					t.Fatalf("op %d: Join took id %d from an empty free list", op, id)
				}
				refused++
				continue
			}
			if err != nil {
				t.Fatal(err)
			}
			if want := stack[len(stack)-1]; id != int(want) {
				t.Fatalf("op %d: Join took id %d, the stack would pop %d", op, id, want)
			}
			stack = stack[:len(stack)-1]
			if id < n {
				recycled++
			}
		}
		if got := freeList(o); !reflect.DeepEqual(got, stack) && len(got)+len(stack) > 0 {
			t.Fatalf("op %d: free list %v, stack %v", op, got, stack)
		}
	}
	if recycled == 0 || refused == 0 {
		t.Fatalf("%d departed ids rejoined, %d joins refused: the script missed a case", recycled, refused)
	}
	if err := o.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestMixPreservesInvariants(t *testing.T) {
	o := newTestOverlay(t, 80, 6, 0, 8)
	o.Mix(1000)
	if err := o.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if o.AliveCount() != 80 {
		t.Errorf("mix changed membership: %d", o.AliveCount())
	}
}

// aliveGraph freezes the alive part of the overlay into a Graph on dense
// ids, alive peers in id order. A self-loop's two stubs make one edge.
func aliveGraph(t *testing.T, o *Overlay) *graph.Graph {
	t.Helper()
	dense := make([]int32, o.NumNodes())
	n := int32(0)
	for v := range dense {
		dense[v] = -1
		if o.Alive(v) {
			dense[v] = n
			n++
		}
	}
	var edges [][2]int32
	for v := range dense {
		loops := 0
		for _, w := range o.row(v) {
			switch {
			case int(w) == v:
				if loops++; loops%2 == 0 {
					edges = append(edges, [2]int32{dense[v], dense[v]})
				}
			case int(w) > v:
				edges = append(edges, [2]int32{dense[v], dense[w]})
			}
		}
	}
	g, err := graph.NewFromEdges(int(n), edges)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestOverlayStaysExpanderUnderChurn holds the P2P claim the overlay exists
// for: under join/leave churn with switch-chain mixing the alive peers stay
// an exactly d-regular expander, with |λ₂| within 10 % of the
// Alon–Boppana bound 2√(d−1) a uniform random d-regular graph attains.
func TestOverlayStaysExpanderUnderChurn(t *testing.T) {
	const n, d, rounds = 1024, 8, 200
	bound := spectral.AlonBoppanaBound(d)
	for seed := uint64(1); seed <= 3; seed++ {
		master := xrand.New(seed)
		o, err := New(n, d, 4096, master.Split())
		if err != nil {
			t.Fatal(err)
		}
		ch, err := NewChurner(o, 0.02, 0.02, 10, master.Split())
		if err != nil {
			t.Fatal(err)
		}
		for r := 1; r <= rounds; r++ {
			ch.Step(r)
			if r%50 != 0 {
				continue
			}
			g := aliveGraph(t, o)
			if g.NumNodes() != o.AliveCount() || !g.IsRegular(d) {
				t.Fatalf("seed %d round %d: alive graph of %d nodes (overlay says %d) is not %d-regular", seed, r, g.NumNodes(), o.AliveCount(), d)
			}
			l2, err := spectral.SecondEigenvalue(g, 200, master.Split())
			if err != nil {
				t.Fatal(err)
			}
			if ratio := l2 / bound; ratio > 1.10 {
				t.Errorf("seed %d round %d: |λ₂|/2√(d−1) = %.3f > 1.10", seed, r, ratio)
			} else {
				t.Logf("seed %d round %d: %d alive, |λ₂|/2√(d−1) = %.3f", seed, r, g.NumNodes(), ratio)
			}
		}
	}
}

func TestHeavyChurnKeepsInvariants(t *testing.T) {
	o := newTestOverlay(t, 100, 6, 100, 10)
	rng := xrand.New(11)
	for step := 0; step < 500; step++ {
		if rng.Bool(0.5) {
			if _, err := o.Join(); err != nil {
				continue
			}
		} else {
			v := firstAlive(o)
			if rng.Bool(0.5) {
				// pick a random alive peer instead of the first
				for tries := 0; tries < 50; tries++ {
					u := rng.IntN(o.NumNodes())
					if o.Alive(u) {
						v = u
						break
					}
				}
			}
			if err := o.Leave(v); err != nil {
				continue
			}
		}
	}
	if err := o.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestChurnerValidation(t *testing.T) {
	o := newTestOverlay(t, 50, 6, 10, 12)
	rng := xrand.New(13)
	if _, err := NewChurner(nil, 0.1, 0.1, 0, rng); err == nil {
		t.Error("nil overlay accepted")
	}
	if _, err := NewChurner(o, 1.5, 0.1, 0, rng); err == nil {
		t.Error("bad join prob accepted")
	}
	if _, err := NewChurner(o, 0.1, math.NaN(), 0, rng); err == nil {
		t.Error("NaN leave prob accepted")
	}
	if _, err := NewChurner(o, 0.1, 0.1, -1, rng); err == nil {
		t.Error("negative mix accepted")
	}
}

func TestChurnerStepReportsJoins(t *testing.T) {
	o := newTestOverlay(t, 100, 6, 200, 14)
	ch, err := NewChurner(o, 0.2, 0.05, 5, xrand.New(15))
	if err != nil {
		t.Fatal(err)
	}
	totalJoined := 0
	for round := 1; round <= 20; round++ {
		joined := ch.Step(round)
		totalJoined += len(joined)
		for _, id := range joined {
			if !o.Alive(id) {
				t.Fatalf("reported joiner %d not alive", id)
			}
		}
	}
	if totalJoined == 0 {
		t.Error("no joins in 20 rounds at join prob 0.2")
	}
	if err := o.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestBroadcastSurvivesChurn(t *testing.T) {
	// The paper's robustness claim: the four-choice broadcast tolerates
	// *limited* changes in network size. Peers that join after the pull
	// round are unreachable by design (only active nodes push in Phase 4),
	// so at churn rate q per round the expected shortfall is about
	// q × (rounds after the pull round). At 0.2% churn over a ~43-round
	// schedule that is ≈ 4%; we require ≥ 95% informed. Experiment E13
	// sweeps the churn rate and records the full degradation curve.
	o := newTestOverlay(t, 512, 6, 512, 16)
	ch, err := NewChurner(o, 0.002, 0.002, 10, xrand.New(17))
	if err != nil {
		t.Fatal(err)
	}
	_ = ch // the overlay itself is the Topology; attach churn via wrapper below

	proto, err := core.NewAlgorithm1(512)
	if err != nil {
		t.Fatal(err)
	}
	res, err := phonecall.Run(phonecall.Config{
		Topology: churningTopology{o, ch},
		Protocol: proto,
		Source:   firstAlive(o),
		RNG:      xrand.New(18),
	})
	if err != nil {
		t.Fatal(err)
	}
	frac := float64(res.Informed) / float64(res.AliveNodes)
	if frac < 0.95 {
		t.Errorf("under churn only %.1f%% informed", 100*frac)
	}
}

// churningTopology glues an Overlay and its Churner into a single value
// implementing both Topology and Stepper.
type churningTopology struct {
	*Overlay
	ch *Churner
}

func (c churningTopology) Step(round int) []int { return c.ch.Step(round) }

// membershipEvent is one OnMembership callback invocation.
type membershipEvent struct {
	id     int
	joined bool
}

func TestMembershipEvents(t *testing.T) {
	o := newTestOverlay(t, 16, 4, 8, 5)
	var events []membershipEvent
	o.OnMembership(func(id int, joined bool) {
		events = append(events, membershipEvent{id, joined})
	})
	// A second subscriber sees the same feed (fan-out).
	second := 0
	o.OnMembership(func(int, bool) { second++ })

	id, err := o.Join()
	if err != nil {
		t.Fatal(err)
	}
	if err := o.Leave(3); err != nil {
		t.Fatal(err)
	}
	wid, err := o.Join()
	if err != nil {
		t.Fatal(err)
	}
	want := []membershipEvent{{id, true}, {3, false}, {wid, true}}
	if len(events) != len(want) {
		t.Fatalf("saw %d membership events, want %d: %+v", len(events), len(want), events)
	}
	for i, ev := range events {
		if ev != want[i] {
			t.Errorf("event %d = %+v, want %+v", i, ev, want[i])
		}
	}
	if second != len(want) {
		t.Errorf("second subscriber saw %d events, want %d", second, len(want))
	}
	// Events fire after the mutation: the overlay must already be
	// consistent inside a callback. Verify post-hoc that the final state
	// matches the event log.
	if err := o.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// The second Join may recycle the id Leave just freed; only when it
	// picked a different slot must 3 still be dead.
	if wid != 3 && o.Alive(3) {
		t.Error("departed peer 3 still alive")
	}
	if !o.Alive(wid) {
		t.Error("second joined peer not alive")
	}
}

// scanBudget is the model's definition of the dial budget, written out:
// every alive peer dials min(k, degree) neighbours.
func scanBudget(o *Overlay, k int) int64 {
	var total int64
	for v := 0; v < o.NumNodes(); v++ {
		if o.Alive(v) {
			total += int64(min(k, o.Degree(v)))
		}
	}
	return total
}

// churning is the overlay with its churner's Step, as the engine runs it.
type churning struct {
	*Overlay
	ch  *Churner
	cnt *churnCount
}

func (c churning) Step(round int) []int { return c.cnt.step(c.ch, round) }

// churnCount counts the joins and leaves of a churner's steps from the ids
// Step returns and the alive count it leaves behind.
type churnCount struct{ joins, leaves int }

func (c *churnCount) step(ch *Churner, round int) []int {
	before := ch.Overlay.AliveCount()
	joined := ch.Step(round)
	c.joins += len(joined)
	c.leaves += before + len(joined) - ch.Overlay.AliveCount()
	return joined
}

// silent dials k neighbours per alive peer for a fixed horizon and never
// transmits, so the run lasts every round of the horizon.
type silent struct{ k, horizon int }

func (silent) Name() string            { return "silent" }
func (s silent) Choices() int          { return s.k }
func (s silent) Horizon() int          { return s.horizon }
func (silent) SendPush(t, ia int) bool { return false }
func (silent) SendPull(t, ia int) bool { return false }

// budgetCheck holds every round's ChannelsDial to scanBudget of the overlay
// as the round found it: OnRound comes before the round's churn Step.
type budgetCheck struct {
	o      *Overlay
	k      int
	rounds int
	bad    []string
}

func (b *budgetCheck) OnInformed(node, round int) {}

func (b *budgetCheck) OnRound(rm phonecall.RoundMetrics) {
	b.rounds++
	if want := scanBudget(b.o, b.k); rm.ChannelsDial != want {
		b.bad = append(b.bad, fmt.Sprintf("round %d: ChannelsDial = %d, scan says %d", rm.Round, rm.ChannelsDial, want))
	}
}

// TestOverlayDialBudgetMatchesScan pins the engine's budget on the overlay,
// computed in O(1) from its fixed-stride view, against the explicit scan
// in every round of a join/leave/mix run, including a k above d (the
// clamp) and a growing and a shrinking overlay.
func TestOverlayDialBudgetMatchesScan(t *testing.T) {
	const n, d, rounds = 200, 6, 41
	for _, tc := range []struct{ join, leave float64 }{{0.05, 0.05}, {0.08, 0.01}, {0.01, 0.08}} {
		for _, k := range []int{1, 4, d, d + 3} {
			o := newTestOverlay(t, n, d, n, 31)
			ch, err := NewChurner(o, tc.join, tc.leave, 7, xrand.New(32))
			if err != nil {
				t.Fatal(err)
			}
			check := &budgetCheck{o: o, k: k}
			cnt := &churnCount{}
			res, err := phonecall.Run(phonecall.Config{Topology: churning{o, ch, cnt}, Protocol: silent{k, rounds}, RNG: xrand.New(33), Observer: check})
			if err != nil {
				t.Fatal(err)
			}
			if check.rounds != rounds || res.Rounds != rounds {
				t.Fatalf("join=%v leave=%v k=%d: %d OnRound calls over %d rounds, want %d", tc.join, tc.leave, k, check.rounds, res.Rounds, rounds)
			}
			if len(check.bad) > 0 {
				t.Errorf("join=%v leave=%v k=%d: %d rounds off the scan, first %s", tc.join, tc.leave, k, len(check.bad), check.bad[0])
			}
			if cnt.joins == 0 || cnt.leaves == 0 {
				t.Fatalf("join=%v leave=%v: %d joins, %d leaves — the run did not churn", tc.join, tc.leave, cnt.joins, cnt.leaves)
			}
		}
	}
}

// TestAddEdgeBeyondDegreePanics: rows are fixed-stride slots of one flat
// array, so a (d+1)-th stub would land in the next peer's row. The guard
// must fire for a full row at either endpoint and for a self-loop that
// needs two free slots, and must leave the neighbouring row untouched.
func TestAddEdgeBeyondDegreePanics(t *testing.T) {
	const d = 4
	for _, tc := range []struct {
		name string
		u, w int
		free func(o *Overlay) // makes room at one endpoint only
	}{
		{"full-u", 2, 20, func(o *Overlay) {}},
		{"full-w", 20, 2, func(o *Overlay) {}},
		{"self-loop-one-free-slot", 2, 2, func(o *Overlay) { o.removeEdge(2, o.row(2)[0]) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			o := newTestOverlay(t, 16, d, 8, 6) // ids 0..15 alive and full, 16..23 empty
			tc.free(o)
			next := append([]int32(nil), o.stubs[3*d:4*d]...)
			defer func() {
				if recover() == nil {
					t.Fatal("addEdge past degree d did not panic")
				}
				for i, x := range o.stubs[3*d : 4*d] {
					if x != next[i] {
						t.Fatalf("row of peer 3 overwritten at slot %d", i)
					}
				}
			}()
			o.addEdge(tc.u, int32(tc.w))
		})
	}
}

// TestCheckInvariantsCatchesCorruptDegree: deg is the only record of how
// much of a row is in use, so CheckInvariants must notice a wrong entry —
// too small or too large on an alive peer, non-zero on a dead id.
func TestCheckInvariantsCatchesCorruptDegree(t *testing.T) {
	for _, tc := range []struct {
		name string
		v    int
		deg  int32
	}{{"alive-short", 5, 3}, {"alive-long", 5, 5}, {"dead-nonzero", 20, 1}} {
		o := newTestOverlay(t, 16, 4, 8, 6)
		if err := o.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		o.deg[tc.v] = tc.deg
		if err := o.CheckInvariants(); err == nil {
			t.Errorf("%s: deg[%d] = %d went unnoticed", tc.name, tc.v, tc.deg)
		}
	}
}

// warmedChurner is the benchmark cell's overlay (1 % joins, 1 % leaves,
// five mix steps per round) after enough steps for every buffer to have
// reached its steady-state size.
func warmedChurner(tb testing.TB, n, d int) *Churner {
	tb.Helper()
	master := xrand.New(77)
	o, err := New(n, d, n, master.Split())
	if err != nil {
		tb.Fatal(err)
	}
	ch, err := NewChurner(o, 0.01, 0.01, 5, master.Split())
	if err != nil {
		tb.Fatal(err)
	}
	for round := 1; round <= 64; round++ {
		ch.Step(round)
	}
	return ch
}

// TestChurnerStepSteadyStateAllocFree guards the reuse of Leave's stub
// scratch and Step's joined buffer: on a warmed overlay a step allocates
// nothing.
func TestChurnerStepSteadyStateAllocFree(t *testing.T) {
	ch := warmedChurner(t, 2048, 8)
	round := 64
	allocs := testing.AllocsPerRun(50, func() {
		round++
		ch.Step(round)
	})
	if allocs != 0 {
		t.Errorf("%v allocs per Churner.Step on a warmed overlay, want 0", allocs)
	}
	if err := ch.Overlay.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkChurnerStep is one churn step of the benchmark cell's overlay.
func BenchmarkChurnerStep(b *testing.B) {
	ch := warmedChurner(b, 16384, 8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ch.Step(65 + i)
	}
}
