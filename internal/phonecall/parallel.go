package phonecall

import (
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
	// nothing, so skipping cannot move the trace.
	sends bool

	// Per-round outputs, merged sequentially in shard-index order.
	outbox  []int32 // candidate receivers queued by this shard
	usedBuf []int64 // edge keys that carried a transmission (TrackEdgeUse)
	tx      int64   // transmissions sent by this shard

	_ [16]byte // pad to three cache lines to soften false sharing between adjacent shards
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
	// the caller's channels) or nodes keep dial memory (AvoidRecent).
	dialSenders dialMode = iota
	// dialEveryone samples the row of every alive node.
	dialEveryone
	// dialSampled draws nothing: an earlier round call of the same
	// simulated round (another message of a MultiEngine) filled every row,
	// and this rumour rides on the same channels.
	dialSampled
)

// Run executes the full schedule and returns the result: one round call
// per simulated round, then the per-round accounting, churn and the
// completion check.
func (e *Engine) Run() Result {
	res := Result{FirstAllInformed: -1}
	e.informedAt[e.cfg.Source] = 0
	e.shardOf(e.cfg.Source).cohort[0] = 1
	if e.informedBits != nil {
		e.informedBits[uint(e.cfg.Source)>>6] |= 1 << (uint(e.cfg.Source) & 63)
	}
	informedCount := 1
	if e.cfg.Observer != nil {
		e.cfg.Observer.OnInformed(e.cfg.Source, 0)
	}

	horizon := e.proto.Horizon()
	stepper, _ := e.topo.(Stepper)

	for t := 1; t <= horizon; t++ {
		newly, roundTx := e.round(t, dialSenders)
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
					if e.informedBits != nil {
						e.informedBits[uint(v)>>6] &^= 1 << (uint(v) & 63)
					}
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
	}

	e.finishResult(&res)
	return res
}

// round runs round t of one rumour over the receipt rounds in informedAt
// and the shards' cohort counts, and returns the number of receipts it
// applied and the transmissions it sent. Four steps: (1) compute the
// protocol's push/pull decision tables for the round, (2) run the
// dial/push/pull pass of every shard — inline, or concurrently on up to
// Workers goroutines — with each shard drawing only from its own PRNG
// stream and writing only its own dial rows and outbox, (3) merge the
// per-shard outboxes into the global receipt queue in shard order, and
// (4) apply the receipts. Because shard streams and the merge order are
// fixed, the result is bit-identical for every worker count.
func (e *Engine) round(t int, dial dialMode) (newly int, roundTx int64) {
	// Step 1: decision tables. A node's behaviour this round is a pure
	// function of its receipt round, so one table lookup per node
	// replaces per-node Protocol calls in the hot shard passes, and the
	// per-shard cohort counts tell which shards can hold a sender.
	for ia := 0; ia < t; ia++ {
		e.pushDec[ia] = e.proto.SendPush(t, ia)
		e.pullDec[ia] = !e.neverPulls && e.proto.SendPull(t, ia)
	}
	anyPull, pullAll := false, e.informedBits != nil
	for i := range e.shards {
		sh := &e.shards[i]
		sh.sends = false
		for ia, c := range sh.cohort[:t] {
			if c > 0 {
				sh.sends = sh.sends || e.pushDec[ia]
				anyPull = anyPull || e.pullDec[ia]
				pullAll = pullAll && e.pullDec[ia]
			}
		}
	}
	e.pullAll = pullAll
	if dial == dialSenders && (anyPull || e.cfg.AvoidRecent > 0) {
		dial = dialEveryone
	}

	// Step 2: shard passes (the parallel section).
	e.runShardPasses(t, anyPull, dial)

	// Step 3: merge outboxes in shard-index order (deterministic).
	for i := range e.shards {
		sh := &e.shards[i]
		roundTx += sh.tx
		for _, w := range sh.outbox {
			word, bit := &e.isPending[uint(w)>>6], uint64(1)<<(uint(w)&63)
			if *word&bit != 0 {
				continue
			}
			*word |= bit
			e.pending = append(e.pending, w)
		}
		for _, key := range sh.usedBuf {
			e.markUsed(key)
		}
	}

	// Step 4: apply receipts at the end of the round.
	newly = len(e.pending)
	for _, v := range e.pending {
		e.isPending[uint(v)>>6] &^= 1 << (uint(v) & 63)
		e.informedAt[v] = int32(t)
		if e.informedBits != nil {
			e.informedBits[uint(v)>>6] |= 1 << (uint(v) & 63)
		}
		e.shardOf(int(v)).cohort[t]++
		if e.cfg.Observer != nil {
			e.cfg.Observer.OnInformed(int(v), t)
		}
	}
	e.pending = e.pending[:0]
	return newly, roundTx
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

// pass resets a shard's per-round outputs and runs its round on the
// engaged path — unless the shard can hold no sender, no cohort pulls and
// the round does not dial everywhere (see parShard.sends), in which case
// there is nothing to scan for.
func (e *Engine) pass(sh *parShard, t int, anyPull bool, dial dialMode) {
	sh.tx = 0
	sh.outbox = sh.outbox[:0]
	sh.usedBuf = sh.usedBuf[:0]
	if dial != dialEveryone && !sh.sends && !anyPull {
		return
	}
	if e.fast {
		e.shardPassFast(sh, t, anyPull, dial)
	} else {
		e.shardPass(sh, t, anyPull, dial)
	}
}

// shardPass runs one round for the nodes a shard owns: dial sampling,
// push transmissions, then pull transmissions, in ascending node order.
// It reads informedAt (frozen during the round) and writes only the
// shard's own dial rows, per-node dial memory/cursors, and outbox, so
// concurrent shard passes never race. Delivery candidates are queued in
// the outbox; global dedup happens in the sequential merge.
func (e *Engine) shardPass(sh *parShard, t int, anyPull bool, dial dialMode) {
	track := e.cfg.TrackEdgeUse
	loss := e.cfg.MessageLossProb

	for v := sh.lo; v < sh.hi; v++ {
		// Receipt round first, liveness last: in sender-sparse rounds
		// almost every node fails the cohort test, which is one load.
		ia := e.informedAt[v]
		sender := sh.sends && ia != Uninformed && int(ia) < t && e.pushDec[ia] && e.topo.Alive(v)
		if dial == dialEveryone {
			if e.topo.Alive(v) {
				e.sampleDialsFor(v, &sh.ds)
			} else {
				e.clearDialRow(v)
			}
		} else if sender && dial == dialSenders {
			e.sampleDialsFor(v, &sh.ds)
		}
		if !sender {
			continue
		}
		base := v * e.k
		for j := 0; j < e.k; j++ {
			w := e.dialTargets[base+j]
			if w < 0 {
				continue
			}
			sh.tx++
			if track {
				sh.usedBuf = append(sh.usedBuf, edgeKey(v, int(w)))
			}
			if loss > 0 && sh.ds.rng.Bool(loss) {
				continue
			}
			if e.informedAt[w] == Uninformed && e.topo.Alive(int(w)) {
				sh.outbox = append(sh.outbox, w)
			}
		}
	}

	if !anyPull {
		return
	}
	// Pull is evaluated caller-side: every channel v→w the shard's nodes
	// dialled lets an informed, pulling callee w answer the caller v. The
	// receiver is always the shard's own node v.
	for v := sh.lo; v < sh.hi; v++ {
		if !e.topo.Alive(v) {
			continue
		}
		uninformedCaller := e.informedAt[v] == Uninformed
		base := v * e.k
		for j := 0; j < e.k; j++ {
			w := e.dialTargets[base+j]
			if w < 0 {
				continue
			}
			wia := e.informedAt[w]
			if wia == Uninformed || int(wia) >= t || !e.pullDec[wia] {
				continue
			}
			sh.tx++
			if track {
				sh.usedBuf = append(sh.usedBuf, edgeKey(v, int(w)))
			}
			if loss > 0 && sh.ds.rng.Bool(loss) {
				continue
			}
			if uninformedCaller {
				sh.outbox = append(sh.outbox, int32(v))
			}
		}
	}
}
