package phonecall

import (
	"math/bits"
	"time"

	"regcast/internal/sched"
)

// WorkersAuto, given as Config.Workers, selects GOMAXPROCS worker
// goroutines for the shard passes.
const WorkersAuto = sched.WorkersAuto

// DefaultShards is the shard count of every program's runs: a fixed
// constant of internal/sched, deliberately not tied to GOMAXPROCS, so that
// a run's trace depends only on (seed, topology, protocol, shard count).
// Config.Workers only chooses where the one round driver's shard passes
// execute, inline (0 and 1) or on a pool; per-shard streams are what make
// every value yield the same trace bit for bit.
const DefaultShards = sched.DefaultShards

// parShard is one node partition of the engine: the contiguous node range
// [lo, hi), its own PRNG stream (the i-th Split of the run RNG), dial state
// and per-round outputs. Its pass ORs receipts into a bitset no other pass
// in flight holds, so concurrent passes share no mutable state.
type parShard struct {
	lo, hi int
	ds     dialState

	// cohort[r] counts the shard's nodes whose receipt round is r; departed
	// nodes stay counted until their id rejoins, so it bounds the alive
	// cohort from above, and a zero proves the cohort has no member here.
	cohort []int32
	// sends: some cohort that pushes this round may have a member here. If
	// not, and the round neither pulls nor dials everyone, the pass is
	// skipped: it would draw nothing, so skipping cannot move the trace.
	// pushAll: every cohort counted here pushes, so an informed node pushes.
	sends, pushAll bool

	// Per-round outputs, merged sequentially in shard-index order.
	usedBuf []int64 // edge keys that carried a transmission (TrackEdgeUse)
	tx      int64   // transmissions sent by this shard

	_ [48]byte // pad to four cache lines to soften false sharing between adjacent shards
}

// initShards partitions the node range and derives one independent PRNG
// stream per shard from the run RNG (stream i is the i-th Split of
// cfg.RNG, so the whole run remains reproducible from the master seed).
// Workers 0 and 1 both resolve to the inline loop of runShardPasses.
func (e *Engine) initShards() {
	nShards := e.cfg.shards
	if nShards == 0 {
		nShards = DefaultShards
	}
	e.workers = sched.Resolve(e.cfg.Workers, nShards)
	e.rowFree = make(chan []int32, max(1, e.workers))   // a send per scratch ever made
	e.nextFree = make(chan []uint64, max(1, e.workers)) // likewise, per bitset
	e.nexts = make([][]uint64, 0, max(1, e.workers))
	e.shards = make([]parShard, nShards)
	rounds := e.proto.Horizon() + 1 // receipt rounds 0..Horizon
	cohorts := make([]int32, nShards*rounds)
	for i := range e.shards {
		sh := &e.shards[i]
		sh.lo, sh.hi = sched.Bounds(i, e.n, nShards)
		sh.ds = newDialState(e.cfg.RNG.Split(), e.k)
		sh.cohort = cohorts[i*rounds : (i+1)*rounds]
	}
}

// shardOf returns the shard owning node v.
func (e *Engine) shardOf(v int) *parShard {
	return &e.shards[sched.Owner(v, e.n, len(e.shards))]
}

// dialMode is the round's dial decision. The driver of round makes it —
// Engine.Run or MultiEngine.Run, never a user-set option.
type dialMode uint8

const (
	// dialSenders samples a row only for the nodes that push this round;
	// round upgrades it to dialEveryone when a cohort pulls (a pull needs
	// the caller's channels) or nodes keep dial memory (roundDial).
	dialSenders dialMode = iota
	// dialEveryone samples the row of every alive node.
	dialEveryone
	// dialSampled draws nothing: an earlier round call of the same
	// simulated round (another message of a MultiEngine) filled every row,
	// and this rumour rides on the same channels.
	dialSampled
)

// Run executes the full schedule and returns the result: per round one round
// call — one count once the run has settled (settle) — then the accounting,
// churn and the completion check. An Engine runs once; a second call panics.
func (e *Engine) Run() Result {
	e.spend()
	res := Result{FirstAllInformed: -1}
	e.inform(e.shardOf(e.cfg.Source), e.cfg.Source, 0)
	informedCount := 1

	horizon := e.proto.Horizon()
	stepper, _ := e.topo.(Stepper)
	e.countFrom = horizon + 1

	for t := 1; t <= horizon; t++ {
		newly, roundTx := 0, int64(0)
		if t >= e.countFrom { // still one PhaseObserver call per round
			t0 := e.stamp()
			roundTx, _ = e.countRound(t)
			res.CountedRounds++
			if e.phases != nil {
				e.phases.OnRoundPhases(t, time.Since(t0), 0, 0)
			}
		} else {
			newly, roundTx = e.round(t, dialSenders)
		}
		informedCount += newly

		e.recordRound(&res, t, newly, informedCount, roundTx)

		// Churn happens between rounds. Joiners start uninformed (a reused
		// id leaves its old cohort), and both joins and departures
		// invalidate the incremental informed counter.
		if stepper != nil {
			joined := stepper.Step(t)
			for _, v := range joined {
				if ia := e.informedAt[v]; ia != Uninformed {
					e.shardOf(v).cohort[ia]--
					e.informedAt[v] = Uninformed
					e.informedBits[uint(v)>>6] &^= 1 << (uint(v) & 63)
				}
			}
			if err := e.refreshCSR(); err != nil {
				panic(err) // a fixed-stride view broke its rule mid-run
			}
			informedCount = e.recount()
			e.refreshBudget(joined)
		}

		if e.noteCompletion(&res, t, informedCount, stepper != nil) {
			break
		}
		if e.cfg.Halt != nil && e.cfg.Halt() {
			break
		}
		// n informed are n alive: only the alive receive, only a Stepper kills.
		if e.cohortDials == nil && informedCount == e.n && stepper == nil &&
			e.cfg.ChannelFailureProb == 0 && !e.cfg.TrackEdgeUse {
			e.settle(t)
		}
	}

	e.finishResult(&res)
	return res
}

// settle is called after the round t that informed the last of n nodes on a
// static topology with no failing channels and no edge census. Every channel
// now reaches an informed callee, so a round's transmissions depend on which
// cohorts send, not on whom anyone dials: the rounds from countFrom on are
// counted from cohortDials. A round in which some occupied cohorts pull and
// others do not (who answers depends on the dials) and every round before it
// are simulated, so skipped draws move no stream and no Result changes.
func (e *Engine) settle(t int) {
	e.cohortDials = make([]int64, e.proto.Horizon()+1)
	for r := range e.cohortDials {
		e.cohortDials[r] = -1
	}
	for v, ia := range e.informedAt {
		e.cohortDials[ia] = max(e.cohortDials[ia], 0) + int64(min(e.k, e.degree(v)))
	}
	e.countFrom = t + 1
	for u := t + 1; u < len(e.cohortDials); u++ {
		if _, ok := e.countRound(u); !ok {
			e.countFrom = u + 1
		}
	}
}

// countRound returns what round t of a settled run transmits: every pushing
// cohort over the channels its nodes dial, and when every occupied cohort
// pulls, an answer on every channel dialled. ok is false for settle's exception.
func (e *Engine) countRound(t int) (tx int64, ok bool) {
	pulls, silent := false, false
	for r, dials := range e.cohortDials {
		if dials < 0 {
			continue // nobody was informed in round r
		}
		if e.proto.SendPush(t, r) {
			tx += dials
		}
		pull := e.proto.SendPull(t, r)
		pulls, silent = pulls || pull, silent || !pull
	}
	if pulls {
		tx += e.budget
	}
	return tx, !(pulls && silent)
}

// spend marks the engine as run; a second Run would redo the first's work
// over its receipts, in the array its Result was handed.
func (e *Engine) spend() {
	if e.ran {
		panic("phonecall: Run called twice")
	}
	e.ran = true
}

// inform applies one receipt: w, a node of shard sh, holds the rumour from
// the end of round t.
func (e *Engine) inform(sh *parShard, w, t int) {
	e.informedAt[w] = int32(t)
	setBit(e.informedBits, w)
	sh.cohort[t]++
	if e.cfg.Observer != nil {
		e.cfg.Observer.OnInformed(w, t)
	}
}

// round runs round t of one rumour over the receipt rounds in informedAt
// and the shards' cohort counts, and returns the receipts it applied and
// the transmissions it sent. Three steps: (1) the protocol's decision
// tables, (2) every shard's pass, inline or on up to Workers goroutines,
// each drawing only from its own stream and writing only its own rows and
// a borrowed receipt bitset, (3) the merge (applyReceipts). A round's
// receipts are a set union, which no worker schedule can reorder, so the
// result is bit-identical for every worker count.
func (e *Engine) round(t int, dial dialMode) (newly int, roundTx int64) {
	t0 := e.stamp()
	// Step 1: decision tables. A node's behaviour this round is a pure
	// function of its receipt round, so one table lookup per node
	// replaces per-node Protocol calls in the hot shard passes, and the
	// per-shard cohort counts tell which shards can hold a sender.
	for ia := 0; ia < t; ia++ {
		e.pushDec[ia] = e.proto.SendPush(t, ia)
		e.pullDec[ia] = e.proto.SendPull(t, ia)
	}
	anyPull, pullAll := false, true
	informed, senders := 0, 0
	for i := range e.shards {
		sh := &e.shards[i]
		sh.sends, sh.pushAll = false, true
		for ia, c := range sh.cohort[:t] {
			if c > 0 {
				sh.sends = sh.sends || e.pushDec[ia]
				sh.pushAll = sh.pushAll && e.pushDec[ia]
				anyPull = anyPull || e.pullDec[ia]
				pullAll = pullAll && e.pullDec[ia]
				informed += int(c)
				if e.pushDec[ia] {
					senders += int(c)
				}
			}
		}
	}
	e.pullAll = pullAll
	dial = e.roundDial(dial, anyPull)

	// Step 2: shard passes (the parallel section).
	t1 := e.stamp()
	if e.sparseFrontier(dial, e.n-informed, senders) {
		e.markFrontier(t)
	}
	e.runShardPasses(t, anyPull, dial)
	t2 := e.stamp()

	// Step 3: merge: counts and census keys in shard order, then receipts.
	for i := range e.shards {
		sh := &e.shards[i]
		roundTx += sh.tx
		for _, key := range sh.usedBuf {
			e.markUsed(key)
		}
	}
	newly = e.applyReceipts(t)
	if e.phases != nil {
		e.phases.OnRoundPhases(t, t1.Sub(t0), t2.Sub(t1), time.Since(t2))
	}
	return newly, roundTx
}

// applyReceipts applies round t's receipts — the ids set in some pass's
// bitset (all back in nextFree), less the informed — in ascending id order,
// clears the bitsets and returns how many it applied. No dead id is ever
// set: the samplers leave dead targets out of the rows, and a pull's
// receiver is a caller the walk found alive.
func (e *Engine) applyReceipts(t int) (newly int) {
	nexts := e.nexts[:0]
	for len(e.nextFree) > 0 {
		nexts = append(nexts, <-e.nextFree)
	}
	s := 0
	for i, informed := range e.informedBits {
		var m uint64
		for _, next := range nexts {
			if x := next[i]; x != 0 {
				m |= x
				next[i] = 0
			}
		}
		m &^= informed
		for ; m != 0; m &= m - 1 {
			w := i<<6 + bits.TrailingZeros64(m)
			for w >= e.shards[s].hi { // a cursor, not shardOf's division
				s++
			}
			e.inform(&e.shards[s], w, t)
			newly++
		}
	}
	for _, next := range nexts {
		e.nextFree <- next
	}
	e.nexts = nexts
	return newly
}

// sparseFrontier reports whether round's word-kernel round is a
// sparse-frontier round: the view is fully alive, the topology declares
// symmetric rows, and marking U uninformed ids' neighbourhoods (U·d̄
// resolutions, then k per marked sender) costs less than resolving S
// senders' S·k dials.
func (e *Engine) sparseFrontier(dial dialMode, uninformed, senders int) bool {
	deg := e.uniDeg
	if e.impNbrs == nil {
		deg = len(e.csrAdj) / e.n
	}
	return e.wordRound(dial) && e.aliveBits == nil && e.symmetric &&
		float64(uninformed)*float64(deg)*float64(1+e.k) < float64(senders)*float64(e.k)
}

// markFrontier makes round t a sparse-frontier round: it marks every
// informed neighbour of an uninformed id in a receipt bitset and copies the
// marks into every other one a pass can borrow (Workers pooled): a pass on
// a fresh one would drop receipts. On symmetric rows an unmarked sender's
// targets are all informed, so dialWords resolves none of its dials, and
// the merge's &^ informed erases the marks (applyReceipts).
func (e *Engine) markFrontier(t int) {
	mark := borrow(e.nextFree, len(e.informedBits))
	for wi, inf := range e.informedBits {
		for m := e.shardWord(wi, 0, e.n, false) &^ inf; m != 0; m &= m - 1 {
			u := wi<<6 + bits.TrailingZeros64(m)
			off, deg := e.row(u)
			for i := 0; i < deg; i++ {
				w := uint(e.nbrAt(u, off, i))
				mark[w>>6] |= e.informedBits[w>>6] & (1 << (w & 63))
			}
		}
	}
	e.nexts = append(e.nexts[:0], mark)
	for len(e.nexts) < max(1, e.workers) {
		e.nexts = append(e.nexts, append(borrow(e.nextFree, len(mark))[:0], mark...))
	}
	for _, next := range e.nexts {
		e.nextFree <- next
	}
	e.frontier = int32(t)
}

// roundDial is the mode round runs when its driver asks for dial (dialSenders).
func (e *Engine) roundDial(dial dialMode, anyPull bool) dialMode {
	if dial == dialSenders && (anyPull || e.memory > 0) {
		return dialEveryone
	}
	return dial
}

// stamp reads the monotonic clock, but only for a PhaseObserver.
func (e *Engine) stamp() (now time.Time) {
	if e.phases != nil {
		now = time.Now()
	}
	return now
}

// runShardPasses executes the round's pass for every shard, inline when
// at most one worker is configured, else on a work-stealing pool; which
// worker runs a shard cannot influence the outcome.
func (e *Engine) runShardPasses(t int, anyPull bool, dial dialMode) {
	if e.workers <= 1 {
		// A plain loop, not the pool with one worker: the inline path must
		// stay allocation-free per round, and the pool's closure is not.
		for i := range e.shards {
			e.pass(&e.shards[i], t, anyPull, dial)
		}
		return
	}
	sched.Pool(e.workers, len(e.shards), func(i int) {
		e.pass(&e.shards[i], t, anyPull, dial)
	})
}

// pass resets a shard's per-round outputs and, unless parShard.sends skips
// it, runs its shardPass over a borrowed receipt bitset.
func (e *Engine) pass(sh *parShard, t int, anyPull bool, dial dialMode) {
	sh.tx = 0
	sh.usedBuf = sh.usedBuf[:0]
	if dial != dialEveryone && !sh.sends && !anyPull {
		return
	}
	var stride int
	sh.ds.rows, stride = e.rowsFor(sh, anyPull)
	sh.ds.next = borrow(e.nextFree, len(e.informedBits))
	e.shardPass(sh, t, anyPull, dial, stride)
	e.nextFree <- sh.ds.next
	if stride > 0 && e.allRows == nil {
		e.rowFree <- sh.ds.rows
	}
}

// rowsFor is the dial-row store of one shard pass: node v's row is
// rows[(v-sh.lo)*stride:][:k]. Without a pull scan the push loop consumes a
// row in the iteration that sampled it, so the shard's one row serves every
// node (stride 0); with one, the rows live until the scan, in a borrowed
// scratch. A MultiEngine's full store is the one special case.
func (e *Engine) rowsFor(sh *parShard, anyPull bool) (rows []int32, stride int) {
	switch {
	case e.allRows != nil:
		return e.allRows[sh.lo*e.k : sh.hi*e.k], e.k
	case !anyPull:
		return sh.ds.row, 0
	}
	return borrow(e.rowFree, (e.n/len(e.shards)+1)*e.k), e.k // fits every shard
}

// borrow lends a shard pass a scratch from free, making one of size only
// when none is free; pass returns it. So there are never more than passes in
// flight: one inline, at most Workers on the pool. A receipt bitset (size
// n/64 words) comes back clear from the merge.
func borrow[T int32 | uint64](free chan []T, size int) []T {
	select {
	case s := <-free:
		return s
	default:
		return make([]T, size)
	}
}
