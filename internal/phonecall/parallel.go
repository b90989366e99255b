package phonecall

import (
	"time"

	"regcast/internal/sched"
)

// WorkersAuto, given as Config.Workers, selects GOMAXPROCS worker
// goroutines for the shard passes.
const WorkersAuto = sched.WorkersAuto

// DefaultShards is the shard count used when Config.Shards is 0. It comes
// from the shared scheduler substrate (internal/sched): a fixed constant —
// deliberately NOT tied to GOMAXPROCS — so that a run's trace depends only
// on (seed, topology, protocol, shard count) and is reproducible across
// machines and worker counts.
//
// Determinism scope: there is one round driver (Run), and Config.Workers
// only chooses where its shard passes execute — inline on the calling
// goroutine (0 and 1) or on a pool (> 1, WorkersAuto). Every value yields
// the same trace bit for bit. Per-shard streams are what make that
// possible at all — a single shared stream would make the draw order
// depend on goroutine scheduling.
const DefaultShards = sched.DefaultShards

// parShard is one node partition of the engine. A shard owns the
// contiguous node range [lo, hi), its own PRNG stream (derived
// deterministically from the run RNG and the shard index), and its own
// outbox, so the per-round shard passes share no mutable state.
type parShard struct {
	lo, hi int
	ds     dialState

	// cohort[r] counts the shard's nodes whose receipt round is r. It is
	// incremented when a receipt is applied and decremented when a
	// rejoining id is reset, so under churn (departed nodes stay counted)
	// it is an upper bound on the shard's alive cohort — which is all the
	// skip below needs: a zero count proves the cohort has no member here.
	cohort []int32
	// sends is the round's skip decision: some cohort the protocol lets
	// push this round may have a member in the shard. When it is false, no
	// cohort pulls and the round does not dial everywhere, the shard's pass
	// is skipped; it would have found no sender, sampled no dial and drawn
	// nothing, so skipping cannot move the trace. pushAll is the round's
	// "every cohort counted here pushes" (with an informed bitset only): an
	// informed node then pushes whatever its receipt round (pushes).
	sends, pushAll bool

	// Per-round outputs, merged sequentially in shard-index order.
	outbox  []int32 // candidate receivers queued by this shard
	usedBuf []int64 // edge keys that carried a transmission (TrackEdgeUse)
	tx      int64   // transmissions sent by this shard

	_ [48]byte // pad to four cache lines to soften false sharing between adjacent shards
}

// initShards partitions the node range and derives one independent PRNG
// stream per shard from the run RNG (stream i is the i-th Split of
// cfg.RNG, so the whole run remains reproducible from the master seed).
// Workers 0 and 1 both resolve to the inline loop of runShardPasses.
func (e *Engine) initShards() {
	nShards := e.cfg.Shards
	if nShards == 0 {
		nShards = DefaultShards
	}
	e.workers = sched.Resolve(e.cfg.Workers, nShards)
	e.rowFree = make(chan []int32, max(1, e.workers)) // a send per scratch ever made
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
	e.inform(e.cfg.Source, 0)
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
			e.refreshCSR()
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
// topology that cannot change, with no failing channels and no edge census.
// Every channel now reaches an informed callee, so what a round transmits is
// a function of which receipt cohorts send, not of whom anyone dials (a lost
// transmission counts; cursors and dial memory are in no Result): the rounds
// from countFrom on are counted from cohortDials, not simulated. A round in
// which some occupied cohorts pull and others do not is the exception (who
// answers depends on the dials); it and every round before it — skipped draws
// would move the streams under it — are simulated, so no Result ever changes.
func (e *Engine) settle(t int) {
	e.cohortDials = make([]int64, e.proto.Horizon()+1)
	for r := range e.cohortDials {
		e.cohortDials[r] = -1
	}
	for v, ia := range e.informedAt {
		e.cohortDials[ia] = max(e.cohortDials[ia], 0) + int64(min(e.dials, e.topo.Degree(v)))
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
		pull := !e.neverPulls && e.proto.SendPull(t, r)
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

// inform applies one receipt: w holds the rumour from the end of round t.
func (e *Engine) inform(w, t int) {
	e.informedAt[w] = int32(t)
	e.informedBits[uint(w)>>6] |= 1 << (uint(w) & 63)
	e.shardOf(w).cohort[t]++
	if e.cfg.Observer != nil {
		e.cfg.Observer.OnInformed(w, t)
	}
}

// round runs round t of one rumour over the receipt rounds in informedAt
// and the shards' cohort counts, and returns the number of receipts it
// applied and the transmissions it sent. Three steps: (1) compute the
// protocol's push/pull decision tables for the round, (2) run the
// dial/push/pull pass of every shard — inline, or concurrently on up to
// Workers goroutines — with each shard drawing only from its own PRNG
// stream and writing only its own dial rows and outbox, and (3) walk the
// outboxes in shard order and apply the receipts — the passes are over, so
// nothing reads round-start state any more. Because shard streams and the
// merge order are fixed, the result is bit-identical for every worker count.
func (e *Engine) round(t int, dial dialMode) (newly int, roundTx int64) {
	t0 := e.stamp()
	// Step 1: decision tables. A node's behaviour this round is a pure
	// function of its receipt round, so one table lookup per node
	// replaces per-node Protocol calls in the hot shard passes, and the
	// per-shard cohort counts tell which shards can hold a sender.
	for ia := 0; ia < t; ia++ {
		e.pushDec[ia] = e.proto.SendPush(t, ia)
		e.pullDec[ia] = !e.neverPulls && e.proto.SendPull(t, ia)
	}
	anyPull, pullAll := false, true
	for i := range e.shards {
		sh := &e.shards[i]
		sh.sends, sh.pushAll = false, true
		for ia, c := range sh.cohort[:t] {
			if c > 0 {
				sh.sends = sh.sends || e.pushDec[ia]
				sh.pushAll = sh.pushAll && e.pushDec[ia]
				anyPull = anyPull || e.pullDec[ia]
				pullAll = pullAll && e.pullDec[ia]
			}
		}
	}
	e.pullAll = pullAll
	dial = e.roundDial(dial, anyPull)

	// Step 2: shard passes (the parallel section).
	t1 := e.stamp()
	e.runShardPasses(t, anyPull, dial)
	t2 := e.stamp()

	// Step 3: merge in shard-index order (deterministic), applying receipts.
	for i := range e.shards {
		sh := &e.shards[i]
		roundTx += sh.tx
		for _, w := range sh.outbox {
			if !e.informedFast(int(w)) { // else an earlier candidate won
				e.inform(int(w), t)
				newly++
			}
		}
		for _, key := range sh.usedBuf {
			e.markUsed(key)
		}
	}
	if e.phases != nil {
		e.phases.OnRoundPhases(t, t1.Sub(t0), t2.Sub(t1), time.Since(t2))
	}
	return newly, roundTx
}

// roundDial is the mode round runs when its driver asks for dial (dialSenders).
func (e *Engine) roundDial(dial dialMode, anyPull bool) dialMode {
	if dial == dialSenders && (anyPull || e.cfg.AvoidRecent > 0) {
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
// at most one worker is configured and on a small work-stealing pool
// otherwise. Shard-to-worker assignment is arbitrary; shard results are
// not, so scheduling cannot influence the outcome.
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

// pass resets a shard's per-round outputs and runs its shardPass — unless
// the shard can hold no sender, no cohort pulls and the round does not
// dial everywhere (see parShard.sends), in which case there is nothing to
// scan for.
func (e *Engine) pass(sh *parShard, t int, anyPull bool, dial dialMode) {
	sh.tx = 0
	sh.outbox = sh.outbox[:0]
	sh.usedBuf = sh.usedBuf[:0]
	if dial != dialEveryone && !sh.sends && !anyPull {
		return
	}
	var stride int
	sh.ds.rows, stride = e.rowsFor(sh, anyPull)
	e.shardPass(sh, t, anyPull, dial, stride)
	if stride > 0 && e.allRows == nil {
		e.rowFree <- sh.ds.rows
	}
}

// rowsFor is the dial-row store of one shard pass: node v's row is
// rows[(v-sh.lo)*stride:][:k]. Without a pull scan the push loop consumes a
// row in the iteration that sampled it, so the shard's one row serves every
// node (stride 0); with one, the rows live until the scan, in a scratch
// borrowed from rowFree (pass returns it; one is made only when none is
// free, so there are never more than passes in flight). A MultiEngine's
// full store is the one special case.
func (e *Engine) rowsFor(sh *parShard, anyPull bool) (rows []int32, stride int) {
	switch {
	case e.allRows != nil:
		return e.allRows[sh.lo*e.k : sh.hi*e.k], e.k
	case !anyPull:
		return sh.ds.row, 0
	}
	select {
	case rows = <-e.rowFree:
	default:
		rows = make([]int32, (e.n/len(e.shards)+1)*e.k) // fits every shard
	}
	return rows, e.k
}
