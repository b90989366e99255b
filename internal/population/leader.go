// Self-stabilizing leader election under the uniform random-pair
// scheduler, after the ranked-timeout family of protocols (Austin,
// Berenbrink, Friedetzky, Götte, Hintze; arXiv:2505.01210): a max-rank
// epidemic demotes lower-ranked leaders, a freshness-epidemic timer
// detects a leaderless configuration, and timeouts regenerate leaders
// with fresh random ranks.

package population

import (
	"errors"
	"math/bits"
)

// LeaderElection state layout (one uint32 per agent):
//
//	bit  0      — role: 1 = leader, 0 = follower
//	bits 1..16  — value v: own rank for a leader, max rank seen otherwise
//	bits 17..24 — timer: steps-since-freshness counter, saturating at 255
//
// Dynamics per interaction (symmetric in the two agents):
//
//  1. Rank epidemic: both agents adopt m = max(v_a, v_b); a leader whose
//     value is below m is demoted. If both survive as leaders (equal top
//     rank), the initiator wins the tie.
//  2. Timer: if a leader is present both timers reset to 0 (freshness
//     spreads epidemically from leaders); otherwise both become
//     min(t_a, t_b)+1, so a timer can only grow large when every
//     epidemic path to a leader is stale.
//  3. Timeout: a follower whose aged timer reaches the threshold
//     C = 8·log2(n)+16 promotes itself to leader with probability 1/16
//     (thinned by coin bits, so a leaderless burst creates O(n/16)
//     candidate leaders rather than n) and draws a fresh uniform 16-bit
//     rank from the coin.
//
// From the canonical adversarial starts — all agents leaders, or no
// leaders with expired timers — the protocol converges to exactly one
// leader in Θ(n log n) interactions: the rank epidemic resolves the
// all-leaders start like a max-propagation rumor, and the timeout burst
// plus rank epidemic resolves the leaderless start. The worst
// *arbitrary* start (a poisoned max-seen value above every live rank
// with no leader) additionally waits for a promotion to draw a rank at
// least the poison, an expected 2^16/(2^16−m) extra promotions — the
// rank-space factor of the space–time trade-off in arXiv:2505.01210.
// That slow tail is exactly why the rank field gets 16 of the 32 bits.
type LeaderElection struct {
	timeout uint32
}

const (
	leRoleBit  State = 1 << 0
	leValShift       = 1
	leValMask  State = 0xFFFF
	leTimShift       = 17
	leTimMask  State = 0xFF
)

func leState(leader bool, v, t State) State {
	s := (v&leValMask)<<leValShift | (t&leTimMask)<<leTimShift
	if leader {
		s |= leRoleBit
	}
	return s
}

func leDecode(s State) (leader bool, v, t State) {
	return s&leRoleBit != 0, (s >> leValShift) & leValMask, (s >> leTimShift) & leTimMask
}

// NewLeaderElection builds the protocol for an n-agent clique.
func NewLeaderElection(n int) (*LeaderElection, error) {
	if n < 2 {
		return nil, errors.New("population: leader election needs at least 2 agents")
	}
	return &LeaderElection{timeout: uint32(8*bits.Len(uint(n)) + 16)}, nil
}

// Name implements PairProtocol.
func (p *LeaderElection) Name() string { return "leader-election" }

// Transition implements PairProtocol; a is the initiator, b the
// responder. The initiator slices its promotion randomness from the low
// 32 coin bits, the responder from the high 32.
func (p *LeaderElection) Transition(a, b State, coin uint64) (State, State) {
	la, va, ta := leDecode(a)
	lb, vb, tb := leDecode(b)

	// 1. Rank epidemic with initiator-wins tie-break.
	m := va
	if vb > m {
		m = vb
	}
	la = la && va == m
	lb = lb && vb == m
	if la && lb {
		lb = false
	}

	// 2. Timer: leader freshness resets, follower-only pairs age.
	var t State
	if !la && !lb {
		t = ta
		if tb < t {
			t = tb
		}
		if t < leTimMask {
			t++
		}
	}
	ta, tb = t, t

	// 3. Timeout promotion, thinned to probability 1/16.
	va, vb = m, m
	if !la && !lb {
		if ca := uint32(coin); ta >= State(p.timeout) && ca&0xF == 0 {
			la, va, ta = true, State(ca>>4)&leValMask, 0
		}
		if cb := uint32(coin >> 32); tb >= State(p.timeout) && cb&0xF == 0 {
			lb, vb, tb = true, State(cb>>4)&leValMask, 0
		}
	}
	return leState(la, va, ta), leState(lb, vb, tb)
}

// Measure implements PairProtocol: the number of leaders. The scan is
// branchless — it runs once per super-step over the full configuration.
func (p *LeaderElection) Measure(cfg []State) int {
	leaders := 0
	for _, s := range cfg {
		leaders += int(s & leRoleBit)
	}
	return leaders
}

// InitAllLeaders is the canonical "everyone thinks they lead" adversarial
// start: every agent a leader with the distinct rank i, timer fresh. The
// rank epidemic must demote all but the top-ranked agent.
func InitAllLeaders(i, n int, coin uint64) State {
	return leState(true, State(i)&leValMask, 0)
}

// InitLeaderless is the canonical "no leader, detection due" adversarial
// start: every agent a follower with distinct rank i and an expired
// timer, so the timeout machinery must regenerate and then thin leaders.
func InitLeaderless(i, n int, coin uint64) State {
	return leState(false, State(i)&leValMask, leTimMask)
}

// ApplyPairs implements BatchProtocol: the Transition logic inlined over
// a pre-drawn block, so the engine's fast path pays no interface call
// per interaction. Two reshapings keep the loop lean: the rank epidemic
// compares value bits in packed position (masking instead of the
// decode/re-encode round-trip), and data-dependent selects compile to
// conditional moves — the rank comparison and role bits are coin flips
// during the epidemic phase, so branches here would mispredict half the
// time. Observationally identical to per-pair Transition —
// TestLeaderApplyPairsMatchesTransition and the committed-digest matrix
// pin that.
func (p *LeaderElection) ApplyPairs(states []State, pairs []PairDraw) (changed int) {
	const valBits = leValMask << leValShift
	timeout := State(p.timeout)
	for j := range pairs {
		d := pairs[j]
		a := states[d.A]
		b := states[d.B]

		// Rank epidemic with initiator-wins tie-break, on in-place
		// value bits.
		av := a & valBits
		bv := b & valBits
		mv := av
		if bv > mv {
			mv = bv
		}
		la := a&leRoleBit != 0 && av == mv
		lb := b&leRoleBit != 0 && bv == mv && !la
		noLeader := !la && !lb

		// Timer: aged min for follower-only pairs, 0 when a leader is
		// present (t stays 0 through the !noLeader lane, which also
		// disarms the timeout below — timeout is at least 16).
		ta := (a >> leTimShift) & leTimMask
		tb := (b >> leTimShift) & leTimMask
		if tb < ta {
			ta = tb
		}
		ta += b2s(ta < leTimMask)
		var t State
		if noLeader {
			t = ta
		}

		// Timeout promotion, thinned to probability 1/16; each agent
		// slices its own half of the coin word.
		base := mv | t<<leTimShift
		ca := State(uint32(d.Coin))
		cb := State(uint32(d.Coin >> 32))
		na := base | b2s(la)
		if t >= timeout && ca&0xF == 0 {
			na = leRoleBit | (ca>>4&leValMask)<<leValShift
		}
		nb := base | b2s(lb)
		if t >= timeout && cb&0xF == 0 {
			nb = leRoleBit | (cb>>4&leValMask)<<leValShift
		}

		states[d.A] = na
		states[d.B] = nb
		changed += b2i(na != a) + b2i(nb != b)
	}
	return changed
}

// b2s is b2i for State-typed bit arithmetic.
func b2s(b bool) State {
	if b {
		return 1
	}
	return 0
}
