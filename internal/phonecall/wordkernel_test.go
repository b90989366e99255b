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

// sparseGraph is a CSR graph whose rows stop the word kernel short: a
// 2000-node 8-regular core, then 500 ids that cycle through degrees 0 (no
// neighbour: the deg == 0 skip), 1, 2 and 3 (below k: the min(k, deg)
// arms) and 5, each joined to distinct core nodes.
func sparseGraph(t testing.TB) *graph.Graph {
	const core, extra = 2000, 500
	g := mustRegular(t, core, 8, 43)
	var edges [][2]int32
	for v := 0; v < core; v++ {
		for _, w := range g.Neighbors(v) {
			if int(w) > v {
				edges = append(edges, [2]int32{int32(v), w})
			}
		}
	}
	rng := xrand.New(44)
	var picks []int
	for v := core; v < core+extra; v++ {
		deg := []int{0, 1, 2, 3, 5}[v%5]
		picks = rng.DistinctK(picks[:0], deg, core, make([]int, core))
		for _, w := range picks {
			edges = append(edges, [2]int32{int32(v), int32(w)})
		}
	}
	sg, err := graph.NewFromEdges(core+extra, edges)
	if err != nil {
		t.Fatal(err)
	}
	return sg
}

// kernelProtocols is every protocol shape the word kernel takes rounds of,
// on n nodes: one-dial push and pull-push, four-choice at k = 1…4 through
// core.WithChoices, and the paper's Algorithms 1 and 2 (k = 4), whose
// phase 1 and phase 4 rounds push from some cohorts only.
func kernelProtocols(t testing.TB, n int) []phonecall.Protocol {
	push, err := baseline.NewPush(n, 1)
	if err != nil {
		t.Fatal(err)
	}
	pushPull, err := baseline.NewPushPull(n, 1)
	if err != nil {
		t.Fatal(err)
	}
	protos := []phonecall.Protocol{push, pushPull}
	for k := 1; k <= 4; k++ {
		p, err := core.New(n, 8, core.WithChoices(k))
		if err != nil {
			t.Fatal(err)
		}
		protos = append(protos, p)
	}
	alg1, err := core.NewAlgorithm1(n)
	if err != nil {
		t.Fatal(err)
	}
	alg2, err := core.NewAlgorithm2(n)
	if err != nil {
		t.Fatal(err)
	}
	return append(protos, alg1, alg2)
}

// TestWordKernelMatchesGeneralPass is the differential behind the word
// kernel: on every view (CSR, two implicit families, interfaceView, and a
// CSR graph with isolated and low-degree ids under both its CSR and its
// interface view), for every kernelProtocols shape, at several shard and
// worker counts, a run equals the same run on its allAlive oracle —
// Result, per-round metrics and the whole Observer sequence. The interface
// views take the general pass on both sides (they have no uniform degree):
// they hold sampleDials' Degree call beside row.
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
	sparse := phonecall.NewStatic(sparseGraph(t))
	views := []struct {
		name   string
		topo   phonecall.Topology
		source int
	}{
		{"csr", static, 0},
		{"regular-stream", phonecall.NewImplicit(stream), 0},
		{"hypercube", phonecall.NewImplicit(cube), 0},
		{"interface", struct{ phonecall.Topology }{static}, 0}, // hides CSRView
		{"sparse-csr", sparse, 0},
		{"sparse-interface", struct{ phonecall.Topology }{sparse}, 0},
		{"sparse-csr isolated source", sparse, 2000}, // an isolated sender
	}
	for _, view := range views {
		for _, proto := range kernelProtocols(t, view.topo.NumNodes()) {
			for _, shards := range []int{1, 7, 64} {
				for _, workers := range []int{0, 4} {
					label := fmt.Sprintf("%s %s k=%d shards=%d workers=%d", view.name, proto.Name(), proto.Choices(), shards, workers)
					cfg := phonecall.Config{Protocol: proto, Source: view.source, Shards: shards, Workers: workers}
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

// TestWordKernelEngages pins where the kernel runs: every sending shard
// takes dialWords in every simulated round of stream-push's configuration
// (regular-stream, one-dial push, Workers 1) and of dense-fourchoice's (a
// Static random regular graph, core.New's Algorithm 2, Workers 0), and none
// does under the allAlive oracle or on an implicit view without a uniform
// degree (the same graph through interfaceView), whose rows row cannot read.
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
	dense := phonecall.NewStatic(mustRegular(t, n, 16, 3))
	fourChoice, err := core.New(n, 16)
	if err != nil {
		t.Fatal(err)
	}
	if fourChoice.Variant() != core.Algorithm2 {
		t.Fatalf("core.New(%d, 16) chose %v, want Algorithm 2", n, fourChoice.Variant())
	}
	for _, tc := range []struct {
		name       string
		topo       phonecall.Topology
		proto      phonecall.Protocol
		workers    int
		kernel     bool // every sending shard takes dialWords
		everyRound bool // every simulated round has a sending shard
	}{
		{"stream-push", phonecall.NewImplicit(stream), push, 1, true, true},
		{"stream-push oracle", allAlive(phonecall.NewImplicit(stream)), push, 1, false, true},
		{"dense-fourchoice", dense, fourChoice, 0, true, false},
		{"dense-fourchoice oracle", allAlive(dense), fourChoice, 0, false, false},
		{"dense-fourchoice interface", struct{ phonecall.Topology }{dense}, fourChoice, 0, false, false},
	} {
		var eng *phonecall.Engine
		var kernel, sending []int
		obs := roundHooks{onRound: func(rm phonecall.RoundMetrics) {
			s := 0
			for _, st := range eng.ShardStates() {
				if st.Sends {
					s++
				}
			}
			kernel, sending = append(kernel, eng.WordKernelShards(rm.Round)), append(sending, s)
		}}
		eng, err = phonecall.NewEngine(phonecall.Config{Topology: tc.topo, Protocol: tc.proto, RNG: xrand.New(9), Workers: tc.workers, Observer: obs})
		if err != nil {
			t.Fatal(err)
		}
		res := eng.Run()
		simulated, sent := res.Rounds-res.CountedRounds, 0
		for r := 0; r < simulated; r++ {
			if sending[r] > 0 {
				sent++
			} else if tc.everyRound {
				t.Fatalf("%s round %d: no shard sends", tc.name, r+1)
			}
			want := 0
			if tc.kernel {
				want = sending[r]
			}
			if kernel[r] != want {
				t.Fatalf("%s round %d: %d of %d sending shards ran dialWords, want %d", tc.name, r+1, kernel[r], sending[r], want)
			}
		}
		if sent < 10 {
			t.Fatalf("%s: only %d of %d simulated rounds had a sending shard", tc.name, sent, simulated)
		}
	}
}

// FuzzWordKernel holds the word kernel to the general pass on generated
// runs: a regular-stream graph of n ids and even degree d, as an implicit
// view and materialised as a CSR one, under push, pull-push or Algorithm 1
// or 2 at k = 1…4 dials, over any shard count, inline or on four workers,
// from any seed. Every run must equal its allAlive oracle — Result,
// per-round metrics and the Observer sequence. Seed corpus:
// testdata/fuzz/FuzzWordKernel.
func FuzzWordKernel(f *testing.F) {
	f.Add(uint16(1000), uint8(3), uint8(3), uint8(3), uint8(7), true, uint64(1))
	f.Fuzz(func(t *testing.T, n16 uint16, d8, k8, proto8, shards8 uint8, pooled bool, seed uint64) {
		n := 8 + int(n16)%1024
		d := min(2+2*int(d8%8), (n-1)&^1)
		k := 1 + int(k8%4)
		stream, err := graph.NewRegularStream(n, d, seed)
		if err != nil {
			t.Fatal(err)
		}
		g, err := graph.Materialize(stream)
		if err != nil {
			t.Fatal(err)
		}
		var proto phonecall.Protocol
		switch proto8 % 4 {
		case 0:
			proto, err = baseline.NewPush(n, k)
		case 1:
			proto, err = baseline.NewPushPull(n, k)
		case 2:
			proto, err = core.NewAlgorithm1(n, core.WithChoices(k))
		default:
			proto, err = core.NewAlgorithm2(n, core.WithChoices(k))
		}
		if err != nil {
			t.Fatal(err)
		}
		cfg := phonecall.Config{Protocol: proto, Shards: 1 + int(shards8%64)}
		if pooled {
			cfg.Workers = 4
		}
		for _, topo := range []phonecall.Topology{phonecall.NewImplicit(stream), phonecall.NewStatic(g)} {
			label := fmt.Sprintf("n=%d d=%d %s k=%d shards=%d workers=%d seed=%d", n, d, proto.Name(), k, cfg.Shards, cfg.Workers, seed)
			got, gotLog := runSeeded(t, cfg, topo, seed)
			want, wantLog := runSeeded(t, cfg, allAlive(topo), seed)
			sameResult(t, label, want, got)
			if !reflect.DeepEqual(gotLog, wantLog) {
				t.Fatalf("%s: observer sequences differ", label)
			}
		}
	})
}
