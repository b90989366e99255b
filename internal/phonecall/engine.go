package phonecall

import (
	"errors"
	"fmt"
	"math"
	"math/bits"

	"regcast/internal/graph"
	"regcast/internal/sched"
	"regcast/internal/xrand"
)

// DialStrategy selects how a node picks the neighbours it dials.
type DialStrategy int

const (
	// DialUniform is the (modified) random phone call model: k distinct
	// neighbours chosen independently and uniformly every round.
	DialUniform DialStrategy = iota
	// DialQuasirandom is the quasirandom rumor-spreading model of Doerr,
	// Friedrich & Sauerwald (cited as [9] in the paper): each node starts
	// at a uniformly random position of its (fixed) neighbour list and
	// from then on dials successive list entries, k per round. It requires
	// a push-only schedule (a pull round would advance the cursors of
	// uninformed nodes too, which the quasirandom model does not define).
	DialQuasirandom
)

// String implements fmt.Stringer.
func (s DialStrategy) String() string {
	switch s {
	case DialUniform:
		return "uniform"
	case DialQuasirandom:
		return "quasirandom"
	default:
		return fmt.Sprintf("dialstrategy(%d)", int(s))
	}
}

// Config describes one broadcast simulation.
type Config struct {
	// Topology is the network; required.
	Topology Topology
	// Protocol is the broadcast schedule; required.
	Protocol Protocol
	// Source is the node that creates the message in round 0.
	Source int
	// RNG drives all randomness; required.
	RNG *xrand.Rand
	// ChannelFailureProb is the probability that a dialled channel fails to
	// establish (no communication in either direction over it this round).
	ChannelFailureProb float64
	// MessageLossProb is the probability that an individual transmission is
	// lost in transit. Lost transmissions still count as transmissions.
	MessageLossProb float64
	// DialStrategy selects the neighbour-selection discipline (default
	// DialUniform). DialQuasirandom requires a push-only protocol without
	// dial memory (DialMemory).
	DialStrategy DialStrategy
	// TrackEdgeUse enables the unused-edge census of Lemma 4: an edge
	// counts as used once a transmission crossed it in either direction,
	// and RoundMetrics.UnusedEdgeNodes records |U(t)|, the number of nodes
	// still incident to at least one unused edge. Requires an Observer
	// (the only reader of RoundMetrics) and a simple static topology that
	// declares symmetric adjacency, graph.Symmetric (parallel edges would
	// be conflated; an edge is looked up in its lower endpoint's row).
	TrackEdgeUse bool
	// StopEarly stops the run as soon as every alive node is informed: fewer
	// rounds charged, not a faster run (a settled tail is counted). Leave it
	// false to measure the full schedule, as EXPERIMENTS.md does.
	StopEarly bool
	// DisableFastPath reads the topology through its Degree/Neighbor/Alive
	// methods (interfaceView) even when it exposes a CSR or implicit view. It
	// never changes a result; bench/'s reference probe reads it. ROADMAP
	// item 19 deletes it, in a [benchmark] change that drops that probe.
	DisableFastPath bool
	// Workers selects where the shard passes execute: 0 (the default) and 1
	// inline on the calling goroutine, more on min(Workers, shards) pooled
	// goroutines, WorkersAuto (-1) on GOMAXPROCS. It never changes a result.
	Workers int
	// shards is the number of node partitions (and independent PRNG
	// streams), which determines the trace; 0 means DefaultShards, what
	// every program runs. Only the package's tests vary it.
	shards int
	// Observer, when non-nil, receives streaming per-round callbacks (see
	// Observer). It never changes the trace: observers are called after all
	// of a round's randomness has been drawn.
	Observer Observer
	// Halt, when non-nil, is polled at the end of every round; true stops the
	// run with the partial result (the facade's context cancellation).
	Halt func() bool
}

// RoundMetrics captures the state of one simulated round.
type RoundMetrics struct {
	Round         int
	NewlyInformed int
	Informed      int
	Transmissions int64
	ChannelsDial  int64
	// UnusedEdgeNodes is |U(t)| when Config.TrackEdgeUse is set (else 0).
	UnusedEdgeNodes int
}

// Result summarises a completed run.
type Result struct {
	// Rounds is the number of rounds actually executed.
	Rounds int
	// CountedRounds is how many of them, the last ones, were counted, not
	// simulated (Engine.settle): 0 when the run never settled.
	CountedRounds int
	// Informed is the number of informed alive nodes when the run ended.
	Informed int
	// AliveNodes is the number of alive nodes when the run ended.
	AliveNodes int
	// AllInformed reports whether every alive node was informed at the end.
	AllInformed bool
	// FirstAllInformed is the earliest round after which every alive node
	// was informed, or -1 if that never happened.
	FirstAllInformed int
	// Transmissions is the total number of message transmissions (lost
	// transmissions included, as in the paper's accounting).
	Transmissions int64
	// ChannelsDialed is the total number of channel dials the model mandates
	// (min(k, degree) per alive node and round).
	ChannelsDialed int64
	// InformedAt[v] is the round in which v first received the message
	// (Uninformed if never). Run hands over the engine's own array: the
	// caller owns it.
	InformedAt []int32
}

// Engine runs one message broadcast under the random phone call model. It
// is single use: Run hands the Result its receipt array; a second Run panics.
type Engine struct {
	cfg   Config
	topo  Topology
	proto Protocol

	n          int
	k          int
	informedAt []int32
	// informedBits mirrors informedAt != Uninformed in n/8 bytes: the walk,
	// the pull scan (informedFast), the merge's mask and the recount under
	// churn read it. A MultiEngine swaps it beside informedAt per message.
	informedBits []uint64
	ran          bool // Run was called

	// Per-pass scratch, lent by borrow: pull-round dial rows (k slots per
	// node, Uninformed = "no channel"; rowsFor) and receipt bitsets (one bit
	// per id; pass). allRows is a MultiEngine's full n×k store, nexts
	// applyReceipts' list of the bitsets.
	rowFree  chan []int32
	nextFree chan []uint64
	allRows  []int32
	nexts    [][]uint64

	// The topology's view (see fastpath.go): CSR arrays (CSRViewer — frozen
	// Static graphs and the churning overlay alike), or impView, the
	// topology's ImplicitViewer or interfaceView over its methods, whose rows
	// impNbrs resolves (nbrAt). aliveBits is the view's liveness bitset (nil
	// = every id alive) and aliveN its population count, csrEpoch the epoch
	// they were fetched at (refreshCSR re-fetches when a Step advanced it).
	// csrStride is a fixed-stride CSR view's row length (nil csrOff; see
	// CSRViewer). uniDeg is the view's one degree, or 0: impNbrs'
	// graph.UniformDegree, which row reads instead of calling Degree, or the
	// common row length of a fully-alive symmetric CSR view, which only
	// frontierWords' word walk and dialBudget read. symmetric licenses both
	// the edge census and sparse-frontier rounds.
	fastView  CSRViewer
	csrOff    []int32
	csrAdj    []int32
	csrStride int
	impView   ImplicitViewer
	impNbrs   ImplicitNeighbors
	uniDeg    int
	symmetric bool // the topology declares graph.Symmetric
	aliveBits []uint64
	aliveN    int
	csrEpoch  uint64

	// Round-driver state; see parallel.go.
	workers int
	shards  []parShard

	// Per-round protocol decision tables, indexed by receipt round, filled
	// once per round call instead of inside node loops. pullAll is "every
	// occupied cohort pulls": the pull scan then probes the informed bit and
	// never loads informedAt[w].
	pushDec  []bool
	pullDec  []bool
	pullAll  bool
	frontier int32         // the latest sparse-frontier round (markFrontier)
	phases   PhaseObserver // Config.Observer, when it times round's steps

	// the sequentialised model's state: the protocol's DialMemory, and a
	// flat n×memory ring of recent partners
	memory    int
	recent    []int32
	recentPos []int

	// listCursor holds each node's position in its neighbour list for the
	// quasirandom strategy (-1 until the first dial draws the start).
	listCursor []int32

	// budget caches the dials the model mandates per round, recomputed only
	// after a Step that changed membership (refreshBudget; budgetAlive is
	// the alive count it was computed for).
	budget      int64
	budgetAlive int

	// A settled run (see settle): cohortDials[r] is what the nodes informed in
	// round r dial per round (-1: nobody was); rounds >= countFrom are counted.
	cohortDials []int64
	countFrom   int

	// Edge-use census (Config.TrackEdgeUse; markUsed): usedBits has a bit
	// per adjacency slot (slotOff[v] is v's first), unusedDeg[v] counts v's
	// incident edges not yet used, unusedNodes those counters above 0, |U(t)|.
	unusedDeg   []int32
	slotOff     []int32
	usedBits    []uint64
	unusedNodes int
}

// NewEngine validates cfg and prepares a run.
func NewEngine(cfg Config) (*Engine, error) {
	e, err := newEngine(cfg)
	if err != nil {
		return nil, err
	}
	if err := CheckOrigin(cfg.Topology, "source", cfg.Source); err != nil {
		return nil, err
	}
	return e, nil
}

// CheckOrigin rejects a message origin (Config.Source, Message.Origin)
// that is outside topo's id space or not alive: such a message would
// silently never be disseminated.
func CheckOrigin(topo Topology, what string, v int) error {
	if n := topo.NumNodes(); v < 0 || v >= n {
		return fmt.Errorf("phonecall: %s %d out of range [0,%d)", what, v, n)
	}
	if !topo.Alive(v) {
		return fmt.Errorf("phonecall: %s %d is not alive", what, v)
	}
	return nil
}

// Validate checks every rule of the model that needs no topology. NewEngine
// runs it; the facade's Scenario, which holds a Config before it has a
// topology, runs it at construction.
func (c Config) Validate() error {
	p := c.Protocol
	if p == nil {
		return fmt.Errorf("phonecall: Config requires a Protocol")
	}
	if p.Choices() < 1 {
		return fmt.Errorf("phonecall: protocol %q dials %d < 1 neighbours", p.Name(), p.Choices())
	}
	if p.Horizon() < 1 {
		return fmt.Errorf("phonecall: protocol %q has horizon %d < 1", p.Name(), p.Horizon())
	}
	mem := memoryOf(p)
	if mem < 0 {
		return fmt.Errorf("phonecall: protocol %q has dial memory %d < 0", p.Name(), mem)
	}
	if mem > 0 && p.Choices() != 1 {
		return fmt.Errorf("phonecall: protocol %q keeps dial memory but dials %d neighbours per round; the sequentialised model dials one", p.Name(), p.Choices())
	}
	if !(c.ChannelFailureProb >= 0 && c.ChannelFailureProb <= 1) { // NaN fails too
		return fmt.Errorf("phonecall: ChannelFailureProb %v out of [0,1]", c.ChannelFailureProb)
	}
	if !(c.MessageLossProb >= 0 && c.MessageLossProb <= 1) {
		return fmt.Errorf("phonecall: MessageLossProb %v out of [0,1]", c.MessageLossProb)
	}
	switch c.DialStrategy {
	case DialUniform:
	case DialQuasirandom:
		if mem > 0 {
			return fmt.Errorf("phonecall: DialQuasirandom is incompatible with dial memory: the quasirandom cursor replaces it")
		}
		if pulls(p) {
			return fmt.Errorf("phonecall: DialQuasirandom requires a push-only protocol; %q pulls, and pull rounds are undefined in the quasirandom model", p.Name())
		}
	default:
		return fmt.Errorf("phonecall: unknown dial strategy %d", c.DialStrategy)
	}
	if err := sched.CheckWorkers("phonecall: Workers", c.Workers); err != nil {
		return err
	}
	if c.shards < 0 {
		return fmt.Errorf("phonecall: shards %d < 0", c.shards)
	}
	return nil
}

// pulls reports whether p pulls in any round the engine asks about: some
// receipt round r < t in some round 1 <= t <= Horizon.
func pulls(p Protocol) bool {
	for t := 1; t <= p.Horizon(); t++ {
		for r := 0; r < t; r++ {
			if p.SendPull(t, r) {
				return true
			}
		}
	}
	return false
}

// newEngine is NewEngine without the Source checks — everything a
// MultiEngine, whose origins are per message, shares with it.
func newEngine(cfg Config) (*Engine, error) {
	if cfg.Topology == nil {
		return nil, fmt.Errorf("phonecall: Config requires a Topology")
	}
	if cfg.RNG == nil {
		return nil, fmt.Errorf("phonecall: Config requires an RNG")
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	n := cfg.Topology.NumNodes()
	if int64(n) > math.MaxInt32 {
		// Checked before the view fetch, which scans Alive and allocates
		// n/64 words: views and dial rows hold int32 ids, so a larger id
		// space would wrap silently.
		return nil, fmt.Errorf("phonecall: %d nodes exceed the int32 node ids", n)
	}
	e := &Engine{
		cfg:   cfg,
		topo:  cfg.Topology,
		proto: cfg.Protocol,
		n:     n,
		k:     cfg.Protocol.Choices(),
	}
	// Every topology is read through a view, fetched here once and again
	// only when its epoch advances after a churn Step (fastpath.go): its
	// CSR arrays if it has them, else its implicit view, else interfaceView
	// over its Topology methods.
	if cv, ok := cfg.Topology.(CSRViewer); ok && !cfg.DisableFastPath {
		e.fastView = cv
	} else {
		iv, ok := cfg.Topology.(ImplicitViewer)
		if !ok || cfg.DisableFastPath {
			iv = &interfaceView{Topology: cfg.Topology}
		}
		e.impView = iv
	}
	if err := e.refreshCSR(); err != nil {
		return nil, err
	}
	e.informedAt = make([]int32, n)
	for i := range e.informedAt {
		e.informedAt[i] = Uninformed
	}
	e.informedBits = make([]uint64, (n+63)/64)
	e.pushDec = make([]bool, cfg.Protocol.Horizon()+1)
	e.pullDec = make([]bool, cfg.Protocol.Horizon()+1)
	e.phases, _ = cfg.Observer.(PhaseObserver)
	if e.memory = memoryOf(cfg.Protocol); e.memory > 0 {
		e.recent = make([]int32, n*e.memory)
		for i := range e.recent {
			e.recent[i] = -1
		}
		e.recentPos = make([]int, n)
	}
	if cfg.DialStrategy == DialQuasirandom {
		e.listCursor = make([]int32, n)
		for i := range e.listCursor {
			e.listCursor[i] = -1 // start position drawn at first dial
		}
	}
	if cfg.TrackEdgeUse {
		if cfg.Observer == nil {
			return nil, fmt.Errorf("phonecall: TrackEdgeUse requires an Observer")
		}
		if _, dynamic := cfg.Topology.(Stepper); dynamic {
			return nil, fmt.Errorf("phonecall: TrackEdgeUse requires a static topology")
		}
		if !e.symmetric { // markUsed looks an edge up in its lower endpoint's row
			return nil, fmt.Errorf("phonecall: TrackEdgeUse requires a topology that declares symmetric adjacency (graph.Symmetric)")
		}
		e.unusedDeg = make([]int32, n)
		e.slotOff = make([]int32, n)
		var slots int64
		for v := 0; v < n; v++ {
			deg := e.degree(v)
			e.unusedDeg[v], e.slotOff[v] = int32(deg), int32(slots)
			if deg > 0 {
				e.unusedNodes++
			}
			if slots += int64(deg); slots > math.MaxInt32 {
				return nil, errCensusTooLarge
			}
		}
		e.usedBits = make([]uint64, (slots+63)/64)
	}
	e.budget = e.dialBudget()
	e.budgetAlive = e.aliveCount()
	e.initShards()
	return e, nil
}

// recordRound charges the round's totals to res and hands the round's
// metrics to the Observer, if any. Without one it stays allocation-free.
func (e *Engine) recordRound(res *Result, t, newly, informedCount int, roundTx int64) {
	budget := e.budget
	res.Transmissions += roundTx
	res.ChannelsDialed += budget
	res.Rounds = t
	if e.cfg.Observer == nil {
		return
	}
	e.cfg.Observer.OnRound(RoundMetrics{
		Round:         t,
		NewlyInformed: newly,
		Informed:      informedCount,
		Transmissions: roundTx,
		ChannelsDial:  budget,
		// |U(t)|; stays 0 without TrackEdgeUse.
		UnusedEdgeNodes: e.unusedNodes,
	})
}

// noteCompletion updates FirstAllInformed after round t and reports
// whether the run should stop early. Churn can re-introduce uninformed
// nodes after completion, which resets the completion round.
func (e *Engine) noteCompletion(res *Result, t, informedCount int, churning bool) (stop bool) {
	if informedCount >= e.aliveCount() {
		if res.FirstAllInformed < 0 {
			res.FirstAllInformed = t
		}
		return e.cfg.StopEarly
	}
	if churning {
		res.FirstAllInformed = -1
	}
	return false
}

// finishResult fills the end-of-run summary fields from the final state
// and hands the receipt array over: the engine is spent.
func (e *Engine) finishResult(res *Result) {
	res.AliveNodes = e.aliveCount()
	res.Informed = e.recount()
	res.AllInformed = res.Informed == res.AliveNodes && res.AliveNodes > 0
	res.InformedAt = e.informedAt
}

// edgeKey canonically encodes the undirected edge (v,w).
func edgeKey(v, w int) int64 {
	if v > w {
		v, w = w, v
	}
	return int64(v)<<32 | int64(w)
}

// errCensusTooLarge rejects a TrackEdgeUse run whose adjacency slots do
// not fit the census' int32 slot offsets.
var errCensusTooLarge = errors.New("phonecall: TrackEdgeUse requires a degree sum <= math.MaxInt32")

// markUsed records that the edge encoded by key carried a transmission
// (Lemma 4's census; the shard passes buffer keys and the merge applies
// them here, in shard order). The edge's bit is the first slot holding the
// higher endpoint in the lower endpoint's row, so parallel edges are
// conflated. The first use decrements both endpoints' unused-edge counters
// (twice at v for a self-loop).
func (e *Engine) markUsed(key int64) {
	v, w := int(key>>32), int32(key&0xffffffff)
	off, _ := e.row(v)
	i := 0
	for e.nbrAt(v, off, i) != w {
		i++
	}
	slot := uint(e.slotOff[v]) + uint(i)
	if e.usedBits[slot>>6]&(1<<(slot&63)) != 0 {
		return
	}
	e.usedBits[slot>>6] |= 1 << (slot & 63)
	for _, u := range [2]int{v, int(w)} {
		if e.unusedDeg[u]--; e.unusedDeg[u] == 0 {
			e.unusedNodes--
		}
	}
}

// dialState bundles a PRNG stream with its reusable sampling scratch.
// Every shard owns its own, which is what makes the per-shard passes
// race-free and deterministic regardless of worker count.
type dialState struct {
	rng     *xrand.Rand
	row     []int32  // the one dial row of a round without pull scan
	rows    []int32  // the current pass's rows (rowsFor); the samplers fill them
	next    []uint64 // the current pass's receipt bitset (borrow)
	dialIdx []int
	scratch []int
}

// newDialState builds a dialState for one PRNG stream.
func newDialState(rng *xrand.Rand, k int) dialState {
	row := make([]int32, k)
	return dialState{rng: rng, row: row, rows: row, dialIdx: make([]int, 0, k)}
}

// scratchFor returns a scratch slice with capacity >= n for DistinctK.
func (ds *dialState) scratchFor(n int) []int {
	if cap(ds.scratch) < n {
		ds.scratch = make([]int, n)
	}
	return ds.scratch
}

// refreshBudget recomputes the cached dial budget after a topology Step,
// but only when joins were reported or the alive count moved: a
// degree-preserving rewire (the overlay's Mix) leaves it as it is. A
// Stepper that changed degrees without a join or leave would go unbudgeted;
// none does, and the churn overlay's per-round budget test pins the cache.
func (e *Engine) refreshBudget(joined []int) {
	alive := e.aliveCount()
	if len(joined) == 0 && alive == e.budgetAlive {
		return
	}
	e.budgetAlive = alive
	e.budget = e.dialBudget()
}

// dialBudget is the per-round dial budget the model mandates, read from
// the view: every alive id dials min(k, degree) neighbours. A fixed-stride
// CSR view (every alive row is csrStride long) and a view of one degree
// (uniDeg) answer in O(1); any other view sums its alive ids' degrees
// (degree), with no Topology call on a CSR view. It equals DialBudget's
// Alive/Degree scan of the topology.
func (e *Engine) dialBudget() int64 {
	stride := e.csrOff == nil && e.impNbrs == nil
	if stride || e.uniDeg > 0 {
		d := e.uniDeg
		if stride {
			d = e.csrStride
		}
		return int64(e.aliveN) * int64(min(e.k, d))
	}
	var total int64
	for wi := 0; wi<<6 < e.n; wi++ {
		for m := e.shardWord(wi, 0, e.n, false); m != 0; m &= m - 1 {
			total += int64(min(e.k, e.degree(wi<<6+bits.TrailingZeros64(m))))
		}
	}
	return total
}

// aliveCount returns the number of alive nodes, as of the last view fetch.
func (e *Engine) aliveCount() int { return e.aliveN }

// aliveFast reports liveness from the view's bitset (nil = all alive). It
// draws no randomness, which is what makes every view of one topology
// bit-identical whatever its bitset's provenance.
func (e *Engine) aliveFast(v int) bool {
	return e.aliveBits == nil || e.aliveBits[uint(v)>>6]&(1<<(uint(v)&63)) != 0
}

// informedFast reports whether v holds the rumour, from the informed
// bitset. The push loop and, in a pullAll round, the pull scan ask it once
// per transmission about a random node; it must stay inlinable.
func (e *Engine) informedFast(v int) bool {
	return e.informedBits[uint(v)>>6]&(1<<(uint(v)&63)) != 0
}

// setBit sets bit v of bs (a receipt bitset, the informed bitset). It must
// stay inlinable.
func setBit(bs []uint64, v int) {
	bs[uint(v)>>6] |= 1 << (uint(v) & 63)
}

// refreshCSR re-fetches the topology's view (CSR or implicit) after a
// churn Step, but only when the epoch advanced — one epoch compare per
// round between churn events — and counts the fetched alive bitset.
// newEngine makes the first fetch through it too (impNbrs and csrAdj are
// still nil then) and returns its error; a fixed-stride CSR view whose
// adjacency does not split into NumNodes equal rows is one.
func (e *Engine) refreshCSR() error {
	var alive []uint64
	var epoch uint64
	if e.impView != nil {
		var nbrs ImplicitNeighbors
		nbrs, alive, epoch = e.impView.ImplicitView()
		if epoch == e.csrEpoch && e.impNbrs != nil {
			return nil
		}
		e.impNbrs = nbrs
		e.uniDeg = 0
		if u, ok := nbrs.(graph.UniformDegree); ok {
			e.uniDeg = u.UniformDegree()
		}
	} else {
		var off, adj []int32
		off, adj, alive, epoch = e.fastView.CSRView()
		if epoch == e.csrEpoch && e.csrAdj != nil {
			return nil
		}
		e.csrOff, e.csrAdj, e.csrStride = off, adj, 0
		if off == nil && e.n > 0 {
			if len(adj)%e.n != 0 {
				return fmt.Errorf("phonecall: a CSR view with nil offsets has fixed-stride rows, so len(adj) must be a multiple of NumNodes: %d entries over %d nodes", len(adj), e.n)
			}
			e.csrStride = len(adj) / e.n
		}
	}
	sym, ok := e.topo.(graph.Symmetric)
	e.symmetric = ok && sym.Symmetric()
	if e.impNbrs == nil {
		e.uniDeg = 0
		if alive == nil && e.symmetric { // the only views sparseFrontier admits
			e.uniDeg = e.csrStride
			if e.csrOff != nil {
				e.uniDeg = uniformRows(e.csrOff)
			}
		}
	}
	e.aliveBits, e.csrEpoch = alive, epoch
	e.aliveN = e.n
	if alive != nil {
		e.aliveN = 0
		for _, w := range alive {
			e.aliveN += bits.OnesCount64(w)
		}
	}
	return nil
}

// uniformRows is the common length of the CSR rows off delimits, or 0 if
// two differ.
func uniformRows(off []int32) int {
	if len(off) < 2 {
		return 0
	}
	d := off[1] - off[0]
	for v := 2; v < len(off); v++ {
		if off[v]-off[v-1] != d {
			return 0
		}
	}
	return int(d)
}

// recount recomputes the informed-alive count after churn invalidated the
// incremental counter: popcount(informed & alive), word-wise over
// informedBits and the view's alive bitset (callers refresh the view
// first).
func (e *Engine) recount() int {
	c := 0
	for i, w := range e.informedBits {
		if e.aliveBits != nil {
			w &= e.aliveBits[i]
		}
		c += bits.OnesCount64(w)
	}
	return c
}

// Run is a convenience wrapper: build an engine from cfg and run it.
func Run(cfg Config) (Result, error) {
	e, err := NewEngine(cfg)
	if err != nil {
		return Result{}, err
	}
	return e.Run(), nil
}
