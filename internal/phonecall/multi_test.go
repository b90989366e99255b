package phonecall

import (
	"reflect"
	"testing"

	"regcast/internal/graph"
	"regcast/internal/xrand"
)

// plainTopo hides every optional interface of the topology it wraps, so
// the engine reads it through interfaceView.
type plainTopo struct{ Topology }

// TestMultiEngineOneMessageBitIdenticalToEngine pins the shared round: a
// single message created at round 0 is the single-message engine's run,
// draw for draw, whenever that run also samples everyone's dials in every
// round (a protocol that always pulls) — on every view, with message loss
// drawing from the streams.
func TestMultiEngineOneMessageBitIdenticalToEngine(t *testing.T) {
	g := testGraph(t, 256, 6, 31)
	stream, err := graph.NewRegularStream(256, 6, 32)
	if err != nil {
		t.Fatal(err)
	}
	proto := pushPullProto{2, 12}
	for view, topo := range map[string]Topology{
		"csr":       NewStatic(g),
		"implicit":  NewImplicit(stream),
		"interface": plainTopo{NewStatic(g)},
	} {
		single, err := Run(Config{
			Topology: topo, Protocol: proto, Source: 5, RNG: xrand.New(33),
			MessageLossProb: 0.3,
		})
		if err != nil {
			t.Fatal(err)
		}
		multi, err := NewMultiEngine(MultiConfig{
			Topology: topo, Protocol: proto, Rounds: proto.Horizon(), RNG: xrand.New(33),
			Messages:        []Message{{ID: 0, Origin: 5}},
			MessageLossProb: 0.3,
		})
		if err != nil {
			t.Fatal(err)
		}
		if got := multi.eng.View(); got != view {
			t.Errorf("%s: the multi-message engine reads view %q", view, got)
		}
		res := multi.Run()
		if got := multi.ReceivedAt(0); !reflect.DeepEqual(got, single.InformedAt) {
			t.Errorf("%s: ReceivedAt differs from InformedAt", view)
		}
		if tx := res.PerMessage[0].Transmissions; tx != single.Transmissions {
			t.Errorf("%s: tx %d, single engine %d", view, tx, single.Transmissions)
		}
		if single.Informed == 1 || single.Transmissions == 0 {
			t.Errorf("%s: degenerate run (informed %d, tx %d)", view, single.Informed, single.Transmissions)
		}
	}
}

// TestMultiEngineMessagesDoNotInterfere: the round's dials are drawn once
// whatever rides on them, so without loss draws a message added inside
// the others' active span cannot move their traces.
func TestMultiEngineMessagesDoNotInterfere(t *testing.T) {
	g := testGraph(t, 256, 6, 34)
	run := func(msgs []Message) (*MultiEngine, MultiResult) {
		eng, err := NewMultiEngine(MultiConfig{
			Topology: NewStatic(g), Protocol: pushPullProto{2, 10}, Rounds: 20, RNG: xrand.New(35),
			Messages: msgs,
		})
		if err != nil {
			t.Fatal(err)
		}
		return eng, eng.Run()
	}
	a, b := Message{ID: 0, Origin: 1}, Message{ID: 1, Origin: 200, CreatedAt: 6}
	two, twoRes := run([]Message{a, b})
	three, threeRes := run([]Message{a, {ID: 2, Origin: 77, CreatedAt: 3}, b})
	for i, j := range []int{0, 2} { // index in the pair run → index in the triple run
		if !reflect.DeepEqual(two.ReceivedAt(i), three.ReceivedAt(j)) {
			t.Errorf("message %d: receipts moved when a third message was added", i)
		}
		if twoRes.PerMessage[i].Transmissions != threeRes.PerMessage[j].Transmissions {
			t.Errorf("message %d: transmissions %d → %d", i,
				twoRes.PerMessage[i].Transmissions, threeRes.PerMessage[j].Transmissions)
		}
	}
	if threeRes.PerMessage[1].Informed < 2 {
		t.Error("the added message never spread")
	}
}

// TestMultiEngineCountersMatchReceiptScan checks the incremental
// bookkeeping against a scan of ReceivedAt, on a partially-alive topology
// (CSR and interface views) with staggered creation rounds, for schedules
// that do and do not complete.
func TestMultiEngineCountersMatchReceiptScan(t *testing.T) {
	g := testGraph(t, 128, 6, 36)
	dead := []int{3, 64, 65, 127}
	msgs := []Message{{ID: 0, Origin: 0}, {ID: 1, Origin: 100, CreatedAt: 4}, {ID: 2, Origin: 9, CreatedAt: 11}}
	for name, topo := range map[string]Topology{
		"csr":       newViewTopo(g, dead...),
		"interface": plainTopo{newViewTopo(g, dead...)},
	} {
		for _, proto := range []Protocol{pushPullProto{2, 14}, pushProto{1, 3}} {
			eng, err := NewMultiEngine(MultiConfig{
				Topology: topo, Protocol: proto, Messages: msgs, Rounds: 30, RNG: xrand.New(37),
				MessageLossProb: 0.1,
			})
			if err != nil {
				t.Fatal(err)
			}
			res := eng.Run()
			for mi, mr := range res.PerMessage {
				informed, last := 0, int32(-1)
				for v, r := range eng.ReceivedAt(mi) {
					if r == Uninformed {
						continue
					}
					if !topo.Alive(v) {
						t.Errorf("%s/%s: dead node %d received message %d", name, proto.Name(), v, mi)
					}
					informed++
					if r > last {
						last = r
					}
				}
				all := informed == 128-len(dead)
				first := -1
				if all {
					first = int(last)
				}
				if mr.Informed != informed || mr.AllInformed != all || mr.FirstAllInformed != first {
					t.Errorf("%s/%s message %d: counters (%d, %v, %d), scan (%d, %v, %d)", name, proto.Name(), mi,
						mr.Informed, mr.AllInformed, mr.FirstAllInformed, informed, all, first)
				}
				if wantAll := proto.Horizon() > 3; all != wantAll {
					t.Errorf("%s/%s message %d: AllInformed = %v", name, proto.Name(), mi, all)
				}
			}
		}
	}
}
