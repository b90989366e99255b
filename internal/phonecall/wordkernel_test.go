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

// declaresSymmetric reports whether topo declares symmetric adjacency
// (graph.Symmetric), which the census requires.
func declaresSymmetric(topo phonecall.Topology) bool {
	s, ok := topo.(graph.Symmetric)
	return ok && s.Symmetric()
}

// interfaceOnly hides every view of a topology, so the engine reads it
// through interfaceView, but forwards its graph.Symmetric declaration, so
// a census oracle can still run on it.
type interfaceOnly struct{ phonecall.Topology }

func (t interfaceOnly) Symmetric() bool { return declaresSymmetric(t.Topology) }

// csrWithAlive and implicitWithAlive are a view with a non-nil alive
// bitset, which Alive reads too; both forward the wrapped topology's
// graph.Symmetric declaration.
type csrWithAlive struct {
	phonecall.CSRViewer
	alive []uint64
}

func (t csrWithAlive) Alive(v int) bool { return t.alive[v>>6]&(1<<(uint(v)&63)) != 0 }
func (t csrWithAlive) Symmetric() bool  { return declaresSymmetric(t.CSRViewer) }

func (t csrWithAlive) CSRView() (offsets, adj []int32, alive []uint64, epoch uint64) {
	offsets, adj, _, epoch = t.CSRViewer.CSRView()
	return offsets, adj, t.alive, epoch
}

type implicitWithAlive struct {
	phonecall.Topology
	nbrs  phonecall.ImplicitNeighbors
	alive []uint64
}

func (t implicitWithAlive) Alive(v int) bool { return t.alive[v>>6]&(1<<(uint(v)&63)) != 0 }
func (t implicitWithAlive) Symmetric() bool  { return declaresSymmetric(t.Topology) }

func (t implicitWithAlive) ImplicitView() (phonecall.ImplicitNeighbors, []uint64, uint64) {
	return t.nbrs, t.alive, 0
}

// withDead is topo's adjacency under a view whose alive bitset is non-nil:
// every id's bit set but the listed ids' (and the tail bits past n). The
// rows still name the dead ids, so some dials pick a dead target: a slot
// that opens no channel. With no id listed nothing about the run changes
// but that the view no longer reads as fully alive.
func withDead(topo phonecall.Topology, dead ...int) phonecall.Topology {
	n := topo.NumNodes()
	alive := make([]uint64, (n+63)/64)
	for v := 0; v < n; v++ {
		alive[v>>6] |= 1 << (uint(v) & 63)
	}
	for _, v := range dead {
		alive[v>>6] &^= 1 << (uint(v) & 63)
	}
	switch v := topo.(type) {
	case phonecall.CSRViewer:
		return csrWithAlive{v, alive}
	case phonecall.ImplicitViewer:
		nbrs, _, _ := v.ImplicitView()
		return implicitWithAlive{v, nbrs, alive}
	}
	return implicitWithAlive{topo, methodNbrs{topo}, alive}
}

// everyThird lists every third id of [1, n): dead ids for withDead that
// spare the source 0.
func everyThird(n int) []int {
	var ids []int
	for v := 1; v < n; v += 3 {
		ids = append(ids, v)
	}
	return ids
}

// generalPass runs cfg on topo's word kernel oracle, which takes every round
// through the general shard pass and draws exactly what a kernel round
// draws. On a static topology that is a census run (TrackEdgeUse, which
// wordRound excludes; the census only marks bits in the merge): it never
// settles, so it simulates the tail a plain run may count (the settle
// contract), and its rounds carry |U(t)|, which the oracle's log clears as
// a run without a census reports it. The census refuses a churning
// topology, whose oracle is its interfaceView instead (no uniform degree
// for row to read), with Step still forwarded.
func generalPass(t *testing.T, cfg phonecall.Config, topo phonecall.Topology, seed uint64) (phonecall.Result, *eventLog) {
	t.Helper()
	if _, ok := topo.(phonecall.Stepper); ok {
		return runSeeded(t, cfg, churnInterface(topo), seed)
	}
	cfg.TrackEdgeUse = true
	res, log := runSeeded(t, cfg, topo, seed)
	for i := range log.rounds {
		log.rounds[i].UnusedEdgeNodes = 0
	}
	return res, log
}

// churnInterface is a churning topology with every view hidden but its
// Step: the engine reads it through interfaceView.
func churnInterface(topo phonecall.Topology) phonecall.Topology {
	return struct {
		phonecall.Topology
		phonecall.Stepper
	}{topo, topo.(phonecall.Stepper)}
}

// matchesGeneralPass fails unless a run of cfg on topo equals the same run
// through the general pass — Result, per-round metrics and the whole
// Observer sequence — and returns how many sparse-frontier and fresh-cohort
// rounds the run took. build makes each run's topology (a churning one is
// mutated by its run).
func matchesGeneralPass(t *testing.T, label string, cfg phonecall.Config, build func() phonecall.Topology, seed uint64) phonecall.RoundCounts {
	t.Helper()
	got, gotLog, counts := countedRun(t, cfg, build(), seed)
	want, wantLog := generalPass(t, cfg, build(), seed)
	sameResult(t, label, want, got)
	if !reflect.DeepEqual(gotLog, wantLog) {
		t.Fatalf("%s: observer sequences differ", label)
	}
	return counts
}

// countedRun is runSeeded through phonecall.RunCounted: it also returns the
// run's sparse-frontier and fresh-cohort round counts.
func countedRun(t *testing.T, cfg phonecall.Config, topo phonecall.Topology, seed uint64) (phonecall.Result, *eventLog, phonecall.RoundCounts) {
	t.Helper()
	log := &eventLog{}
	cfg.Topology, cfg.RNG, cfg.Observer = topo, xrand.New(seed), log
	res, counts, err := phonecall.RunCounted(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res, log, counts
}

// frontierRun is countedRun's result, log and sparse-frontier round count.
func frontierRun(t *testing.T, cfg phonecall.Config, topo phonecall.Topology, seed uint64) (phonecall.Result, *eventLog, int) {
	t.Helper()
	res, log, counts := countedRun(t, cfg, topo, seed)
	return res, log, counts.Frontier
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
// kernel: on every view (CSR, two implicit families, interfaceView, a CSR
// graph with isolated and low-degree ids under both its CSR and its
// interface view, views whose alive bitset is all ones or marks a third of
// the ids dead, and a churning overlay), for every kernelProtocols shape, at
// several shard and worker counts, a run equals its general-pass oracle
// (generalPass). The interface views take the general pass on both sides
// (they have no uniform degree): they hold sampleDials' Degree call beside
// row.
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
	fixed := func(topo phonecall.Topology) func() phonecall.Topology {
		return func() phonecall.Topology { return topo }
	}
	churn := churnGolden{joinProb: 0.03, leaveProb: 0.03, mixSteps: 3}
	views := []struct {
		name   string
		topo   func() phonecall.Topology
		source int
	}{
		{"csr", fixed(static), 0},
		{"regular-stream", fixed(phonecall.NewImplicit(stream)), 0},
		{"hypercube", fixed(phonecall.NewImplicit(cube)), 0},
		{"interface", fixed(interfaceOnly{static}), 0}, // hides CSRView
		{"sparse-csr", fixed(sparse), 0},
		{"sparse-interface", fixed(interfaceOnly{sparse}), 0},
		{"sparse-csr isolated source", fixed(sparse), 2000}, // an isolated sender
		{"csr all-ones alive", fixed(withDead(static)), 0},
		{"csr dead ids", fixed(withDead(static, everyThird(2000)...)), 0},
		{"regular-stream dead ids", fixed(withDead(phonecall.NewImplicit(stream), everyThird(3000)...)), 0},
		{"churn overlay", func() phonecall.Topology { return buildChurnTopo(t, 600, 8, churn, 17) }, 5},
	}
	for _, view := range views {
		n := view.topo().NumNodes()
		if ac, ok := view.topo().(interface{ AliveCount() int }); ok {
			n = ac.AliveCount()
		}
		for _, proto := range kernelProtocols(t, n) {
			for _, shards := range []int{1, 7, 64} {
				for _, workers := range []int{0, 4} {
					label := fmt.Sprintf("%s %s k=%d shards=%d workers=%d", view.name, proto.Name(), proto.Choices(), shards, workers)
					cfg := phonecall.Config{Protocol: proto, Source: view.source, Workers: workers}
					cfg.SetShards(shards)
					matchesGeneralPass(t, label, cfg, view.topo, 9)
				}
			}
		}
	}
}

// TestWordKernelEngages pins where the kernel runs: every sending shard
// takes dialWords in every simulated senders round of stream-push's
// configuration (regular-stream, one-dial push, Workers 1), of four-choice
// on the same stream, of dense-fourchoice's (a Static random regular graph,
// core.New's Algorithm 2, Workers 0) and of churn-ensemble's (four-choice
// on a churning overlay, whose alive bitset is partial), and none does in a
// census run (the generalPass oracle) or on a view without a uniform degree
// (the same graph or overlay through interfaceView), whose rows row cannot
// read. Sparse-frontier rounds (markFrontier) engage in the stream and
// dense cells' tails, and never on the partially-alive churn view, in a
// census run or through interfaceView. Some of them walk only the marked
// senders of each word (wordWalk) in the stream and dense cells; none does
// on a view of varying degree (sparseGraph's CSR rows), whose
// sparse-frontier rounds skip sender by sender and must still equal its
// oracle. Fresh-cohort rounds (a word-kernel walk of last round's receipts
// only, freshWalk) engage in a four-choice Phase 1 on the stream, dense and
// churn cells, and never in a push run, whose every cohort pushes, nor in
// the general pass of a census run or an interface view, the oracles: none
// of those makes the fresh bitset.
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
	fourChoiceD8, err := core.New(n, 8)
	if err != nil {
		t.Fatal(err)
	}
	churnCell := churnGolden{joinProb: 0.01, leaveProb: 0.01, mixSteps: 5}
	varying := phonecall.NewStatic(sparseGraph(t))
	varyingPush, err := baseline.NewPush(varying.NumNodes(), 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name       string
		topo       phonecall.Topology
		proto      phonecall.Protocol
		workers    int
		census     bool
		kernel     bool // every sending shard takes dialWords in a senders round
		everyRound bool // every simulated round has a sending shard
		frontier   bool // some round is a sparse-frontier round (else none is)
		words      bool // some round walks a word's marked senders only (else none does)
		fresh      bool // some round walks last round's receipts only (else none does, and no fresh bitset is made)
	}{
		{"stream-push", phonecall.NewImplicit(stream), push, 1, false, true, true, true, true, false},
		{"stream-push census", phonecall.NewImplicit(stream), push, 1, true, false, true, false, false, false},
		{"stream-push interface", struct{ phonecall.Topology }{phonecall.NewImplicit(stream)}, push, 1, false, false, true, false, false, false},
		{"stream-fourchoice", phonecall.NewImplicit(stream), fourChoiceD8, 1, false, true, false, true, true, true},
		{"dense-fourchoice", dense, fourChoice, 0, false, true, false, true, true, true},
		{"dense-fourchoice census", dense, fourChoice, 0, true, false, false, false, false, false},
		{"dense-fourchoice interface", struct{ phonecall.Topology }{dense}, fourChoice, 0, false, false, false, false, false, false},
		{"churn-fourchoice", buildChurnTopo(t, n, 8, churnCell, 1), fourChoiceD8, 0, false, true, false, false, false, true},
		{"churn-fourchoice interface", churnInterface(buildChurnTopo(t, n, 8, churnCell, 1)), fourChoiceD8, 0, false, false, false, false, false, false},
		{"varying-degree push", varying, varyingPush, 0, false, true, true, true, false, false},
	} {
		var eng *phonecall.Engine
		var kernel, sending []int
		var senders []bool
		frontier, words, fresh := 0, 0, 0
		obs := roundHooks{onRound: func(rm phonecall.RoundMetrics) {
			if eng.FrontierRound() == rm.Round {
				frontier++
			}
			if eng.WordWalkShards(rm.Round) > 0 {
				words++
			}
			if eng.FreshShards(rm.Round) > 0 {
				fresh++
			}
			s := 0
			for _, st := range eng.ShardStates() {
				if st.Sends {
					s++
				}
			}
			k, sr := eng.WordKernelShards(rm.Round)
			kernel, sending, senders = append(kernel, k), append(sending, s), append(senders, sr)
		}}
		eng, err = phonecall.NewEngine(phonecall.Config{Topology: tc.topo, Protocol: tc.proto, RNG: xrand.New(9),
			Workers: tc.workers, Observer: obs, TrackEdgeUse: tc.census})
		if err != nil {
			t.Fatal(err)
		}
		res := eng.Run()
		simulated, engaged := res.Rounds-res.CountedRounds, 0
		for r := 0; r < simulated; r++ {
			if sending[r] == 0 && tc.everyRound {
				t.Fatalf("%s round %d: no shard sends", tc.name, r+1)
			}
			want := 0
			if tc.kernel && senders[r] {
				want = sending[r]
			}
			if kernel[r] != want {
				t.Fatalf("%s round %d: %d of %d sending shards ran dialWords, want %d", tc.name, r+1, kernel[r], sending[r], want)
			}
			if senders[r] && sending[r] > 0 {
				engaged++
			}
		}
		if engaged < 10 {
			t.Fatalf("%s: only %d of %d simulated rounds were senders rounds with a sending shard", tc.name, engaged, simulated)
		}
		if (frontier > 0) != tc.frontier {
			t.Fatalf("%s: %d sparse-frontier rounds, want some: %v", tc.name, frontier, tc.frontier)
		}
		if (words > 0) != tc.words {
			t.Fatalf("%s: %d rounds walked marked senders only, want some: %v", tc.name, words, tc.words)
		}
		if (fresh > 0) != tc.fresh || eng.HasFresh() != tc.fresh {
			t.Fatalf("%s: %d rounds walked last round's receipts only (fresh bitset made: %v), want some: %v", tc.name, fresh, eng.HasFresh(), tc.fresh)
		}
		if tc.frontier && !tc.words { // every sparse-frontier round skipped sender by sender
			cfg := phonecall.Config{Protocol: tc.proto, Workers: tc.workers}
			matchesGeneralPass(t, tc.name, cfg, func() phonecall.Topology { return tc.topo }, 9)
		}
	}
}

// FuzzWordKernel holds the word kernel to the general pass on generated
// runs: a regular-stream graph of n ids and even degree d, as an implicit
// view and materialised as a CSR one, under push, pull-push or Algorithm 1
// or 2 at k = 1…4 dials, over any shard count, inline or on four workers,
// from any seed. Every run must equal its generalPass oracle (a census
// run) — Result, per-round metrics and the Observer sequence. Push and
// pull-push take no fresh-cohort round (every cohort pushes; every id
// dials). The directed
// arm runs the same shape on a GnpStream of mean out-degree d, implicit and
// materialised: each must equal its interface view and take no
// sparse-frontier round. Seed corpus: testdata/fuzz/FuzzWordKernel.
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
		shards := 1 + int(shards8%64)
		cfg := phonecall.Config{Protocol: proto}
		cfg.SetShards(shards)
		if pooled {
			cfg.Workers = 4
		}
		for _, topo := range []phonecall.Topology{phonecall.NewImplicit(stream), phonecall.NewStatic(g)} {
			label := fmt.Sprintf("n=%d d=%d %s k=%d shards=%d workers=%d seed=%d", n, d, proto.Name(), k, shards, cfg.Workers, seed)
			if fresh := matchesGeneralPass(t, label, cfg, func() phonecall.Topology { return topo }, seed).Fresh; proto8%4 < 2 && fresh != 0 {
				t.Fatalf("%s: %d fresh-cohort rounds", label, fresh)
			}
		}
		gnp := gnpStream(t, n, d, seed)
		twin, err := graph.Materialize(gnp)
		if err != nil {
			t.Fatal(err)
		}
		for _, topo := range []phonecall.Topology{phonecall.NewImplicit(gnp), phonecall.NewStatic(twin)} {
			label := fmt.Sprintf("gnp-stream n=%d d=%d %s k=%d shards=%d workers=%d seed=%d", n, d, proto.Name(), k, shards, cfg.Workers, seed)
			if frontier := matchesInterfaceView(t, label, cfg, topo, seed); frontier != 0 {
				t.Fatalf("%s: %d sparse-frontier rounds on a digraph", label, frontier)
			}
		}
	})
}
