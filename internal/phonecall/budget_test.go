package phonecall_test

import (
	"fmt"
	"reflect"
	"testing"

	"regcast/internal/baseline"
	"regcast/internal/core"
	"regcast/internal/graph"
	"regcast/internal/p2p/overlay"
	"regcast/internal/phonecall"
	"regcast/internal/xrand"
)

// The dial-budget cache (refreshBudget) replaces the per-round O(n)
// DialBudget scan for dynamic topologies. These tests pin it three ways:
// on the real E13b churn overlay every per-round ChannelsDial must equal
// what a fresh scan of the stepped topology would charge, on a
// membership-stable stepper the engine must not consult Degree at all
// after construction, and on the churning overlay's CSR view — whose
// budget is O(1) and whose recount is a popcount — a whole run must make
// no Alive or Degree call through the interface.

// churningTopo drives an overlay with its churner (the E13b combination)
// and records, after every step, the alive count the next round's budget
// must reflect.
type churningTopo struct {
	*overlay.Overlay
	ch         *churnCount
	aliveAfter []int
}

var _ phonecall.Stepper = (*churningTopo)(nil)

func (c *churningTopo) Step(round int) []int {
	joined := c.ch.Step(round)
	c.aliveAfter = append(c.aliveAfter, c.Overlay.AliveCount())
	return joined
}

// TestChurnBudgetMatchesTopologyE13b runs the E13b churn overlay under
// real join/leave/mix churn and checks every round's ChannelsDial against
// the overlay's ground truth: alive × min(k, d) (the maintained overlay
// keeps every alive peer at exactly degree d between rounds). A stale
// budget cache — recomputed never, or on the wrong rounds — cannot pass,
// and neither could a cache that misses leave-only or join+leave steps.
func TestChurnBudgetMatchesTopologyE13b(t *testing.T) {
	const (
		n = 256
		d = 8
		k = 2
	)
	for _, workers := range []int{0, 2} {
		master := xrand.New(42)
		ov, err := overlay.New(n, d, n, master.Split())
		if err != nil {
			t.Fatal(err)
		}
		ch, err := overlay.NewChurner(ov, 0.02, 0.02, 5, master.Split())
		if err != nil {
			t.Fatal(err)
		}
		topo := &churningTopo{Overlay: ov, ch: &churnCount{churner: ch}}
		push, err := baseline.NewPush(n, k)
		if err != nil {
			t.Fatal(err)
		}
		initialAlive := ov.AliveCount()
		_, rounds, err := phonecall.RunRounds(phonecall.Config{
			Topology: topo,
			Protocol: push,
			RNG:      master.Split(),
			Workers:  workers,
		})
		if err != nil {
			t.Fatal(err)
		}
		if topo.ch.joins == 0 || topo.ch.leaves == 0 {
			t.Fatalf("churn did not exercise joins (%d) and leaves (%d)", topo.ch.joins, topo.ch.leaves)
		}
		for i, rm := range rounds {
			aliveBefore := initialAlive
			if i > 0 {
				aliveBefore = topo.aliveAfter[i-1]
			}
			want := int64(aliveBefore) * int64(k)
			if rm.ChannelsDial != want {
				t.Fatalf("workers=%d round %d: ChannelsDial = %d, want alive(%d) × k(%d) = %d",
					workers, rm.Round, rm.ChannelsDial, aliveBefore, k, want)
			}
		}
	}
}

// meteredStatic is a static graph with a no-op Stepper: membership never
// changes, and every Degree call is counted.
type meteredStatic struct {
	g           *graph.Graph
	degreeCalls int
}

func (m *meteredStatic) NumNodes() int { return m.g.NumNodes() }
func (m *meteredStatic) Degree(v int) int {
	m.degreeCalls++
	return m.g.Degree(v)
}
func (m *meteredStatic) Neighbor(v, i int) int { return m.g.Neighbor(v, i) }
func (m *meteredStatic) Alive(v int) bool      { return true }
func (m *meteredStatic) Step(round int) []int  { return nil }

// silentK1 opens channels but never transmits, so the only possible
// Degree consumer after construction is a dial-budget recomputation.
type silentK1 struct{ horizon int }

func (p silentK1) Name() string            { return "test-silent" }
func (p silentK1) Choices() int            { return 1 }
func (p silentK1) Horizon() int            { return p.horizon }
func (p silentK1) SendPush(t, ia int) bool { return false }
func (p silentK1) SendPull(t, ia int) bool { return false }

// TestBudgetNotRecomputedWithoutMembershipChange is the sharp form of the
// fix: a dynamic topology whose steps never change membership must not be
// Degree-scanned again after NewEngine — before the cache, DialBudget ran
// its O(n) scan every round.
func TestBudgetNotRecomputedWithoutMembershipChange(t *testing.T) {
	g := mustRegular(t, 128, 6, 7)
	topo := &meteredStatic{g: g}
	res, err := phonecall.Run(phonecall.Config{
		Topology: topo,
		Protocol: silentK1{horizon: 50},
		RNG:      xrand.New(3),
	})
	if err != nil {
		t.Fatal(err)
	}
	setup := 128 // one DialBudget scan in NewEngine
	if topo.degreeCalls != setup {
		t.Errorf("membership-stable stepper run made %d Degree calls, want %d (setup scan only)",
			topo.degreeCalls, setup)
	}
	if res.ChannelsDialed != int64(50*128) {
		t.Errorf("ChannelsDialed = %d, want %d", res.ChannelsDialed, 50*128)
	}
}

// meteredChurn is the churning overlay with every Alive and Degree call
// that arrives through the Topology interface counted. It doubles as the
// run's Observer to keep an informed set and a RoundLog of its own; Step
// derives the recount oracle from the set: after each step, the number of alive peers
// that hold the message once the joiners have lost it.
type meteredChurn struct {
	*overlay.Overlay
	ch                      *churnCount
	aliveCalls, degreeCalls int

	informed        []bool
	informedAfter   []int // oracle, per step
	rejoinedHolders int   // joiners that took over the id of a peer holding the message
	rounds          phonecall.RoundLog
}

func (m *meteredChurn) Alive(v int) bool {
	m.aliveCalls++
	return m.Overlay.Alive(v)
}

func (m *meteredChurn) Degree(v int) int {
	m.degreeCalls++
	return m.Overlay.Degree(v)
}

func (m *meteredChurn) OnRound(rm phonecall.RoundMetrics) { m.rounds.OnRound(rm) }
func (m *meteredChurn) OnInformed(node, round int)        { m.informed[node] = true }

func (m *meteredChurn) Step(round int) []int {
	joined := m.ch.Step(round)
	for _, v := range joined {
		if m.informed[v] {
			m.rejoinedHolders++
			m.informed[v] = false
		}
	}
	count := 0
	for v, inf := range m.informed {
		if inf && m.Overlay.Alive(v) {
			count++
		}
	}
	m.informedAfter = append(m.informedAfter, count)
	return joined
}

// newMeteredChurn builds the join/leave/mix overlay both tests below run
// on; every call returns the same membership trajectory.
func newMeteredChurn(t *testing.T, n, d int) *meteredChurn {
	t.Helper()
	base := buildChurnTopo(t, n, d, churnGolden{joinProb: 0.03, leaveProb: 0.03, mixSteps: 4}, 99)
	return &meteredChurn{Overlay: base.Overlay, ch: base.ch, informed: make([]bool, base.NumNodes())}
}

// TestFastPathChurnRunMakesNoInterfaceScan pins "a churn round pays for
// what changed" by count, not by time: once NewEngine has returned, a
// run on the churning overlay's CSR view makes no Topology.Alive and no
// Topology.Degree call at all — the budget refresh and the informed
// recount, which used to scan the id space through the interface after
// every step, are O(1) and a popcount.
func TestFastPathChurnRunMakesNoInterfaceScan(t *testing.T) {
	const n, d = 256, 8
	topo := newMeteredChurn(t, n, d)
	alg1, err := core.NewAlgorithm1(n)
	if err != nil {
		t.Fatal(err)
	}
	e, err := phonecall.NewEngine(phonecall.Config{
		Topology: topo,
		Protocol: alg1,
		RNG:      xrand.New(5),
	})
	if err != nil {
		t.Fatal(err)
	}
	topo.aliveCalls, topo.degreeCalls = 0, 0
	res := e.Run()
	if topo.ch.joins == 0 || topo.ch.leaves == 0 {
		t.Fatalf("churn did not exercise joins (%d) and leaves (%d)", topo.ch.joins, topo.ch.leaves)
	}
	if topo.aliveCalls != 0 || topo.degreeCalls != 0 {
		t.Errorf("%d-round churn run made %d Alive and %d Degree interface calls, want 0 and 0",
			res.Rounds, topo.aliveCalls, topo.degreeCalls)
	}
}

// TestChurnRecountMatchesOracle checks the popcount recount round by
// round, on a run in which peers join, leave and — ids being recycled —
// rejoin on the id of a peer that held the message: every round's
// Informed must be the oracle's count after the previous step plus the
// round's own receipts, on the overlay's CSR view and through
// interfaceView, whose alive bitset is an independent Alive scan.
func TestChurnRecountMatchesOracle(t *testing.T) {
	const n, d = 256, 8
	alg1, err := core.NewAlgorithm1(n)
	if err != nil {
		t.Fatal(err)
	}
	var results [2]phonecall.Result
	var rounds [2]phonecall.RoundLog
	for i, reference := range []bool{false, true} {
		topo := newMeteredChurn(t, n, d)
		res, err := phonecall.Run(phonecall.Config{
			Topology:        topo,
			Protocol:        alg1,
			RNG:             xrand.New(5),
			Observer:        topo,
			DisableFastPath: reference,
		})
		if err != nil {
			t.Fatal(err)
		}
		if topo.ch.joins == 0 || topo.ch.leaves == 0 || topo.rejoinedHolders == 0 {
			t.Fatalf("reference=%v: %d joins, %d leaves, %d rejoins on an informed id — the run must exercise all three",
				reference, topo.ch.joins, topo.ch.leaves, topo.rejoinedHolders)
		}
		before := 1 // the source
		for r, rm := range topo.rounds {
			if want := before + rm.NewlyInformed; rm.Informed != want {
				t.Fatalf("reference=%v round %d: Informed = %d, oracle says %d + %d new = %d",
					reference, rm.Round, rm.Informed, before, rm.NewlyInformed, want)
			}
			before = topo.informedAfter[r]
		}
		if res.Informed != before {
			t.Fatalf("reference=%v: final Informed = %d, oracle says %d", reference, res.Informed, before)
		}
		results[i], rounds[i] = res, topo.rounds
	}
	sameResult(t, "churn recount CSR vs interface view", results[0], results[1])
	sameRounds(t, "churn recount CSR vs interface view", rounds[0], rounds[1])
}

// TestAvoidRecentBudgetIsOneDial: a node with dial memory dials one channel
// per round (a memory protocol dials one: Config.Validate), so that is what
// ChannelsDialed charges, every alive node every round, sender or not. Both
// budget sites: NewEngine's on a frozen graph, refreshBudget's on the E13b
// churn overlay. A memory protocol that dials more is a rejection row of
// TestModelRules.
func TestAvoidRecentBudgetIsOneDial(t *testing.T) {
	const n, d = 512, 6
	push, err := baseline.NewPush(n, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, reference := range []bool{false, true} {
		master := xrand.New(60)
		ov, err := overlay.New(n, d, n, master.Split())
		if err != nil {
			t.Fatal(err)
		}
		ch, err := overlay.NewChurner(ov, 0.02, 0.02, 5, master.Split())
		if err != nil {
			t.Fatal(err)
		}
		churn := &churningTopo{Overlay: ov, ch: &churnCount{churner: ch}}
		for _, topo := range []phonecall.Topology{phonecall.NewStatic(mustRegular(t, n, d, 61)), churn} {
			alive := phonecall.DialBudget(topo, 1) // every degree is d >= 1
			res, rounds, err := phonecall.RunRounds(phonecall.Config{
				Topology: topo, Protocol: phonecall.WithMemory(push, 2), RNG: master.Split(),
				DisableFastPath: reference,
			})
			if err != nil {
				t.Fatal(err)
			}
			var total int64
			for i, rm := range rounds {
				if topo == phonecall.Topology(churn) && i > 0 {
					alive = int64(churn.aliveAfter[i-1])
				}
				if rm.ChannelsDial != alive || rm.Transmissions > rm.ChannelsDial {
					t.Fatalf("reference=%v %T: round %+v, want %d channels and no more transmissions than that", reference, topo, rm, alive)
				}
				total += alive
			}
			if res.ChannelsDialed != total {
				t.Errorf("reference=%v %T: ChannelsDialed = %d, want one per alive node and round = %d", reference, topo, res.ChannelsDialed, total)
			}
		}
		if churn.ch.joins == 0 || churn.ch.leaves == 0 {
			t.Fatalf("churn did not exercise joins (%d) and leaves (%d)", churn.ch.joins, churn.ch.leaves)
		}
	}
}

// budgetScan is an Observer that holds every round's ChannelsDial to
// phonecall.DialBudget's Alive/Degree scan of the topology as the round
// found it: OnRound comes before the round's churn Step.
type budgetScan struct {
	topo   phonecall.Topology
	k      int
	rounds int
	bad    []string
}

func (b *budgetScan) OnInformed(node, round int) {}

func (b *budgetScan) OnRound(rm phonecall.RoundMetrics) {
	b.rounds++
	if want := phonecall.DialBudget(b.topo, b.k); rm.ChannelsDial != want {
		b.bad = append(b.bad, fmt.Sprintf("round %d: ChannelsDial = %d, the scan says %d", rm.Round, rm.ChannelsDial, want))
	}
}

// TestDialBudgetFromEveryView: the engine computes the dial budget from its
// view (O(1) on a fixed-stride or one-degree view, a degree sum over the
// alive ids otherwise), and every round's ChannelsDial must be what
// DialBudget's scan of the topology says, on every kind of view: CSR with
// uniform and ragged rows, fixed stride, dead ids, both implicit stream
// families, the interface view and the churning overlay, re-budgeted
// after the Steps that move membership. Gnp's isolated and low-degree ids
// put k above some degrees.
func TestDialBudgetFromEveryView(t *testing.T) {
	const n = 400
	regular := phonecall.NewStatic(mustRegular(t, n, 6, 5))
	gnp, err := graph.Gnp(n, 3.0/(n-1), xrand.New(6))
	if err != nil {
		t.Fatal(err)
	}
	stream, err := graph.NewRegularStream(n, 8, 7)
	if err != nil {
		t.Fatal(err)
	}
	gnpStream, err := graph.NewGnpStream(n, 3.0/(n-1), 8)
	if err != nil {
		t.Fatal(err)
	}
	churn := churnGolden{joinProb: 0.03, leaveProb: 0.03, mixSteps: 4}
	for _, tc := range []struct {
		name string
		topo func() phonecall.Topology
	}{
		{"regular static", func() phonecall.Topology { return regular }},
		{"gnp static", func() phonecall.Topology { return phonecall.NewStatic(gnp) }},
		{"stride", func() phonecall.Topology { return strideOf{regular} }},
		{"gnp with dead ids", func() phonecall.Topology { return withDead(phonecall.NewStatic(gnp), everyThird(n)...) }},
		{"regular-stream", func() phonecall.Topology { return phonecall.NewImplicit(stream) }},
		{"gnp-stream", func() phonecall.Topology { return phonecall.NewImplicit(gnpStream) }},
		{"interface view", func() phonecall.Topology { return interfaceOnly{phonecall.NewStatic(gnp)} }},
		{"churning overlay", func() phonecall.Topology { return buildChurnTopo(t, 256, 8, churn, 99) }},
	} {
		for _, k := range []int{1, 4} {
			topo := tc.topo()
			push, err := baseline.NewPush(topo.NumNodes(), k)
			if err != nil {
				t.Fatal(err)
			}
			scan := &budgetScan{topo: topo, k: k}
			res, err := phonecall.Run(phonecall.Config{Topology: topo, Protocol: push, RNG: xrand.New(9), Observer: scan})
			if err != nil {
				t.Fatal(err)
			}
			if scan.rounds == 0 || scan.rounds != res.Rounds {
				t.Fatalf("%s k=%d: %d OnRound calls over %d rounds", tc.name, k, scan.rounds, res.Rounds)
			}
			if len(scan.bad) > 0 {
				t.Errorf("%s k=%d: %d rounds off the scan, first %s", tc.name, k, len(scan.bad), scan.bad[0])
			}
			if c, ok := topo.(churnTopo); ok && (c.ch.joins == 0 || c.ch.leaves == 0) {
				t.Fatalf("%s k=%d: %d joins, %d leaves: the run did not churn", tc.name, k, c.ch.joins, c.ch.leaves)
			}
		}
	}
}

// TestCensusFromImplicitView: the edge census reads degrees and rows
// through the engine's view, so a census run on an implicit hypercube and
// on its Materialize twin stream the same |U(t)|, round for round.
func TestCensusFromImplicitView(t *testing.T) {
	h, err := graph.NewImplicitHypercube(9)
	if err != nil {
		t.Fatal(err)
	}
	twin, err := graph.Materialize(h)
	if err != nil {
		t.Fatal(err)
	}
	push, err := baseline.NewPush(h.NumNodes(), 1)
	if err != nil {
		t.Fatal(err)
	}
	var logs [2]phonecall.RoundLog
	for i, topo := range []phonecall.Topology{phonecall.NewImplicit(h), phonecall.NewStatic(twin)} {
		_, logs[i], err = phonecall.RunRounds(phonecall.Config{Topology: topo, Protocol: push, RNG: xrand.New(4), TrackEdgeUse: true})
		if err != nil {
			t.Fatal(err)
		}
	}
	if len(logs[0]) == 0 || logs[0][0].UnusedEdgeNodes == 0 {
		t.Fatalf("census run reports no unused-edge nodes in round 1: %+v", logs[0])
	}
	if !reflect.DeepEqual(logs[0], logs[1]) {
		t.Errorf("census on the implicit hypercube and its materialised twin differ:\n implicit %+v\n  twin    %+v", logs[0], logs[1])
	}
}
