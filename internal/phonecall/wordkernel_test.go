package phonecall_test

import (
	"fmt"
	"reflect"
	"testing"

	"regcast/internal/baseline"
	"regcast/internal/core"
	"regcast/internal/graph"
	"regcast/internal/phonecall"
	"regcast/internal/xrand"
)

// methodNbrs serves a topology's own Degree and Neighbor as implicit
// adjacency.
type methodNbrs struct{ phonecall.Topology }

func (m methodNbrs) NeighborAt(v, i int) int32 { return int32(m.Neighbor(v, i)) }

// csrAllAlive and implicitAllAlive are a view with a non-nil alive bitset.
type csrAllAlive struct {
	phonecall.CSRViewer
	alive []uint64
}

func (t csrAllAlive) CSRView() (offsets, adj []int32, alive []uint64, epoch uint64) {
	offsets, adj, _, epoch = t.CSRViewer.CSRView()
	return offsets, adj, t.alive, epoch
}

type implicitAllAlive struct {
	phonecall.Topology
	nbrs  phonecall.ImplicitNeighbors
	alive []uint64
}

func (t implicitAllAlive) ImplicitView() (phonecall.ImplicitNeighbors, []uint64, uint64) {
	return t.nbrs, t.alive, 0
}

// allAlive is the word kernel's oracle: topo's adjacency under a view whose
// alive bitset is non-nil — every id's bit set, the tail bits past n clear.
// Nothing about the run changes but that the view no longer reads as fully
// alive, which sends every round through the general shard pass.
func allAlive(topo phonecall.Topology) phonecall.Topology {
	n := topo.NumNodes()
	alive := make([]uint64, (n+63)/64)
	for v := 0; v < n; v++ {
		alive[v>>6] |= 1 << (uint(v) & 63)
	}
	switch v := topo.(type) {
	case phonecall.CSRViewer:
		return csrAllAlive{v, alive}
	case phonecall.ImplicitViewer:
		nbrs, _, _ := v.ImplicitView()
		return implicitAllAlive{v, nbrs, alive}
	}
	return implicitAllAlive{topo, methodNbrs{topo}, alive}
}

// TestWordKernelMatchesGeneralPass is the differential behind the word
// kernel: on every view (CSR, two implicit families, interfaceView), for
// one-dial push, pull-push and four-choice, at several shard and worker
// counts, a run equals the same run on its allAlive oracle — Result,
// per-round metrics and the whole Observer sequence.
func TestWordKernelMatchesGeneralPass(t *testing.T) {
	stream, err := graph.NewRegularStream(3000, 8, 5)
	if err != nil {
		t.Fatal(err)
	}
	cube, err := graph.NewImplicitHypercube(10)
	if err != nil {
		t.Fatal(err)
	}
	static := phonecall.NewStatic(mustRegular(t, 2000, 8, 41))
	views := []struct {
		name string
		topo phonecall.Topology
	}{
		{"csr", static},
		{"regular-stream", phonecall.NewImplicit(stream)},
		{"hypercube", phonecall.NewImplicit(cube)},
		{"interface", struct{ phonecall.Topology }{static}}, // hides CSRView
	}
	for _, view := range views {
		n := view.topo.NumNodes()
		push, err := baseline.NewPush(n, 1)
		if err != nil {
			t.Fatal(err)
		}
		pushPull, err := baseline.NewPushPull(n, 1)
		if err != nil {
			t.Fatal(err)
		}
		fourChoice, err := core.New(n, view.topo.Degree(0), core.WithChoices(1))
		if err != nil {
			t.Fatal(err)
		}
		for _, proto := range []phonecall.Protocol{push, pushPull, fourChoice} {
			for _, shards := range []int{1, 7, 64} {
				for _, workers := range []int{0, 4} {
					label := fmt.Sprintf("%s %s shards=%d workers=%d", view.name, proto.Name(), shards, workers)
					cfg := phonecall.Config{Protocol: proto, Shards: shards, Workers: workers}
					got, gotLog := runLogged(t, cfg, view.topo)
					want, wantLog := runLogged(t, cfg, allAlive(view.topo))
					sameResult(t, label, want, got)
					if !reflect.DeepEqual(gotLog, wantLog) {
						t.Fatalf("%s: observer sequences differ", label)
					}
				}
			}
		}
	}
}

// TestWordKernelEngages pins where the kernel runs: in every simulated
// round of stream-push's configuration (regular-stream, one-dial push,
// Workers 1) each sending shard takes it, and under the allAlive oracle
// none does.
func TestWordKernelEngages(t *testing.T) {
	const n = 1 << 14
	stream, err := graph.NewRegularStream(n, 8, 3)
	if err != nil {
		t.Fatal(err)
	}
	push, err := baseline.NewPush(n, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		topo   phonecall.Topology
		kernel bool
	}{
		{"stream-push", phonecall.NewImplicit(stream), true},
		{"oracle", allAlive(phonecall.NewImplicit(stream)), false},
	} {
		var eng *phonecall.Engine
		var kernel, sending []int
		obs := roundHooks{onRound: func(phonecall.RoundMetrics) {
			s := 0
			for _, st := range eng.ShardStates() {
				if st.Sends {
					s++
				}
			}
			kernel, sending = append(kernel, eng.WordKernelShards()), append(sending, s)
		}}
		eng, err = phonecall.NewEngine(phonecall.Config{Topology: tc.topo, Protocol: push, RNG: xrand.New(9), Workers: 1, Observer: obs})
		if err != nil {
			t.Fatal(err)
		}
		res := eng.Run()
		simulated := res.Rounds - res.CountedRounds
		if simulated < 10 {
			t.Fatalf("%s: only %d rounds simulated", tc.name, simulated)
		}
		for r := 0; r < simulated; r++ {
			want := 0
			if tc.kernel {
				want = sending[r]
			}
			if sending[r] == 0 || kernel[r] != want {
				t.Fatalf("%s round %d: %d of %d sending shards ran the word kernel, want %d", tc.name, r+1, kernel[r], sending[r], want)
			}
		}
	}
}
