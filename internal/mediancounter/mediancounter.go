// Package mediancounter implements the self-terminating push&pull rumour
// spreading of Karp, Schindelhauer, Shenker & Vöcking ("Randomized rumor
// spreading", FOCS 2000 — reference [25] of the paper), in the
// counter-based variant: a node that keeps meeting partners who already
// know the rumour concludes the rumour is old and stops propagating it.
//
// Unlike the strictly oblivious schedules in internal/core and
// internal/baseline — whose termination is a fixed horizon computed from
// an estimate of n — the median-counter rule terminates *locally*: no
// global clock w.r.t. the rumour's creation is needed, only a counter
// threshold of order log log n. The cost of that convenience is state, so
// the protocol does not fit the phonecall.Protocol interface and ships
// with its own small engine (same dial semantics: one uniform neighbour
// per round, channels usable in both directions).
//
// Node states follow Karp et al.: A (has not heard the rumour), B (knows
// it and propagates, carrying a counter), C (knows it and stays quiet).
// A B-node increments its counter each round in which it communicated the
// rumour only to partners that already knew it; reaching the threshold
// moves it to C. Uninformed nodes keep dialling, so late pulls still work.
//
// Both bounds are constants of n: the threshold is ⌈log₂ log₂ n⌉ + 2, the
// Θ(log log n) of Karp et al., and a run stops after at most 8·⌈log₂ n⌉
// rounds, a safety net the protocol goes quiet well before.
package mediancounter

import (
	"fmt"
	"math"

	"regcast/internal/graph"
	"regcast/internal/xrand"
)

// State is a node's rumour state.
type State int8

const (
	// StateA has not heard the rumour.
	StateA State = iota
	// StateB knows the rumour and propagates it.
	StateB
	// StateC knows the rumour and no longer propagates it.
	StateC
)

// String implements fmt.Stringer.
func (s State) String() string {
	switch s {
	case StateA:
		return "A"
	case StateB:
		return "B"
	case StateC:
		return "C"
	default:
		return fmt.Sprintf("state(%d)", int8(s))
	}
}

// Config describes one median-counter run.
type Config struct {
	// Graph is the (static, simple) topology.
	Graph *graph.Graph
	// Source creates the rumour.
	Source int
	// RNG drives the run.
	RNG *xrand.Rand
}

// Result summarises a run.
type Result struct {
	// Rounds executed until the protocol went quiet (or 8·⌈log₂ n⌉).
	Rounds int
	// QuietAt is the first round after which no B-nodes remained, or -1.
	QuietAt int
	// Informed counts nodes in state B or C at the end.
	Informed int
	// AllInformed reports whether every node heard the rumour.
	AllInformed bool
	// Transmissions counts rumour transmissions (each channel direction
	// that carried the rumour).
	Transmissions int64
	// MaxCounter is the largest counter value any node reached.
	MaxCounter int
}

// Run executes the protocol until no B-nodes remain or 8·⌈log₂ n⌉ rounds
// elapse.
func Run(cfg Config) (Result, error) {
	if cfg.Graph == nil || cfg.RNG == nil {
		return Result{}, fmt.Errorf("mediancounter: Config requires Graph and RNG")
	}
	n := cfg.Graph.NumNodes()
	if n < 2 {
		return Result{}, fmt.Errorf("mediancounter: graph too small (n=%d)", n)
	}
	if cfg.Source < 0 || cfg.Source >= n {
		return Result{}, fmt.Errorf("mediancounter: source %d out of range [0,%d)", cfg.Source, n)
	}
	// Θ(log log n) as in Karp et al.; the constant matters because a
	// retired node has paid ~2·threshold transmissions in its quiet period,
	// so it stays at ⌈log log n⌉ + 2.
	logN := math.Log2(float64(n))
	threshold := int(math.Ceil(math.Log2(logN))) + 2
	maxRounds := 8 * int(math.Ceil(logN))

	state := make([]State, n)
	ctr := make([]int, n)
	state[cfg.Source] = StateB
	ctr[cfg.Source] = 1
	bCount := 1

	dials := make([]int32, n)
	newlyB := make([]int32, 0, 64)
	res := Result{QuietAt: -1, MaxCounter: 1}

	for t := 1; t <= maxRounds && bCount > 0; t++ {
		res.Rounds = t
		// Dial phase: every node picks one uniform neighbour.
		for v := 0; v < n; v++ {
			deg := cfg.Graph.Degree(v)
			if deg == 0 {
				dials[v] = -1
				continue
			}
			dials[v] = int32(cfg.Graph.Neighbor(v, cfg.RNG.IntN(deg)))
		}
		// Exchange phase. For every channel (v dialled w), the rumour can
		// flow v→w (push, if v is B) and w→v (pull answer, if w is B).
		talked := make([]bool, n) // B-node communicated the rumour this round
		fresh := make([]bool, n)  // ... and informed at least one new node
		newlyB = newlyB[:0]
		justInformed := make([]bool, n)
		for v := 0; v < n; v++ {
			w := dials[v]
			if w < 0 {
				continue
			}
			// Push direction: v → w.
			if state[v] == StateB {
				res.Transmissions++
				talked[v] = true
				if state[w] == StateA && !justInformed[w] {
					justInformed[w] = true
					fresh[v] = true
					newlyB = append(newlyB, w)
				}
			}
			// Pull direction: w → v (w answers its caller).
			if state[w] == StateB {
				res.Transmissions++
				talked[int(w)] = true
				if state[v] == StateA && !justInformed[v] {
					justInformed[v] = true
					fresh[w] = true
					newlyB = append(newlyB, int32(v))
				}
			}
		}
		// Counter update: a B-node that communicated the rumour this round
		// without informing anyone new increments its counter ("the rumour
		// looks old"); reaching the threshold retires it to C.
		for v := 0; v < n; v++ {
			if state[v] != StateB || !talked[v] || fresh[v] {
				continue
			}
			ctr[v]++
			if ctr[v] > res.MaxCounter {
				res.MaxCounter = ctr[v]
			}
			if ctr[v] >= threshold {
				state[v] = StateC
				bCount--
			}
		}
		// Receipts: newly informed nodes enter B with counter 1.
		for _, v := range newlyB {
			if state[v] == StateA {
				state[v] = StateB
				ctr[v] = 1
				bCount++
			}
		}
		if bCount == 0 && res.QuietAt < 0 {
			res.QuietAt = t
		}
	}
	if bCount == 0 && res.QuietAt < 0 {
		res.QuietAt = res.Rounds
	}

	for v := 0; v < n; v++ {
		if state[v] != StateA {
			res.Informed++
		}
	}
	res.AllInformed = res.Informed == n
	return res, nil
}
