package population

import (
	"hash/fnv"
	"math"
	"testing"

	"regcast/internal/xrand"
)

// traceHash runs a config and returns an FNV-1a hash over every
// super-step's stats plus the final configuration — a full-trace
// fingerprint for bit-identity tests.
func traceHash(t *testing.T, cfg Config) (uint64, Result) {
	t.Helper()
	h := fnv.New64a()
	word := func(x uint64) {
		var b [8]byte
		for i := range b {
			b[i] = byte(x >> (8 * i))
		}
		h.Write(b[:])
	}
	cfg.Observer = observerFunc(func(s SuperStepStats) {
		word(uint64(s.Step))
		word(uint64(cfg.N)) // a super-step is N interactions
		word(uint64(s.Changed))
		word(uint64(s.Measure))
	})
	res, err := Run(cfg)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	for _, s := range res.Final {
		word(uint64(s))
	}
	word(uint64(res.Steps))
	word(uint64(res.Interactions))
	word(uint64(res.ConvergedAt))
	return h.Sum64(), res
}

type observerFunc func(SuperStepStats)

func (f observerFunc) OnSuperStep(s SuperStepStats) { f(s) }

func TestPairTraceWorkerIndependent(t *testing.T) {
	le, err := NewLeaderElection(300)
	if err != nil {
		t.Fatal(err)
	}
	base := Config{N: 300, Pair: le, Init: InitAllLeaders}
	var want uint64
	for i, workers := range []int{0, 1, 4} {
		cfg := base
		cfg.Workers = workers
		cfg.RNG = xrand.New(7)
		got, res := traceHash(t, cfg)
		if i == 0 {
			want = got
			if !res.Converged {
				t.Fatalf("leader election did not converge in %d steps (measure %d)", res.Steps, res.Measure)
			}
			continue
		}
		if got != want {
			t.Fatalf("workers=%d trace hash %#x, want %#x (workers=0)", workers, got, want)
		}
	}
}

func TestRingTraceWorkerIndependent(t *testing.T) {
	hm, err := NewHerman(101)
	if err != nil {
		t.Fatal(err)
	}
	init, err := InitTokens(101, 5)
	if err != nil {
		t.Fatal(err)
	}
	base := Config{N: 101, Ring: hm, Init: init}
	var want uint64
	for i, workers := range []int{0, 1, 4} {
		cfg := base
		cfg.Workers = workers
		cfg.RNG = xrand.New(11)
		got, res := traceHash(t, cfg)
		if i == 0 {
			want = got
			if !res.Converged {
				t.Fatalf("Herman ring did not converge in %d steps (measure %d)", res.Steps, res.Measure)
			}
			continue
		}
		if got != want {
			t.Fatalf("workers=%d trace hash %#x, want %#x (workers=0)", workers, got, want)
		}
	}
}

func TestLeaderElectionConvergesFromCanonicalStarts(t *testing.T) {
	for _, tc := range []struct {
		name string
		init func(i, n int, coin uint64) State
	}{
		{"all-leaders", InitAllLeaders},
		{"leaderless", InitLeaderless},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for seed := uint64(1); seed <= 5; seed++ {
				le, err := NewLeaderElection(200)
				if err != nil {
					t.Fatal(err)
				}
				res, err := Run(Config{N: 200, Pair: le, Init: tc.init, RNG: xrand.New(seed)})
				if err != nil {
					t.Fatal(err)
				}
				if !res.Converged {
					t.Fatalf("seed %d: not converged after %d steps (measure %d)", seed, res.Steps, res.Measure)
				}
				if got := le.Measure(res.Final); got != 1 {
					t.Fatalf("seed %d: final configuration has %d leaders, want 1", seed, got)
				}
			}
		})
	}
}

// TestLeaderElectionInteractionEnvelope pins the Θ(n log n) convergence
// claim at small n: over a few seeds, the mean interactions-to-convergence
// from the all-leaders start must land within a generous constant band
// around n·ln n. The bounds were calibrated empirically and have an order
// of magnitude of slack on each side, so they fail on asymptotic
// regressions (e.g. the rank epidemic degrading to Θ(n²)) and not on
// seed noise.
func TestLeaderElectionInteractionEnvelope(t *testing.T) {
	for _, n := range []int{128, 256, 512} {
		var sum float64
		const seeds = 8
		for seed := uint64(1); seed <= seeds; seed++ {
			le, err := NewLeaderElection(n)
			if err != nil {
				t.Fatal(err)
			}
			res, err := Run(Config{N: n, Pair: le, Init: InitAllLeaders, RNG: xrand.New(seed)})
			if err != nil {
				t.Fatal(err)
			}
			if !res.Converged {
				t.Fatalf("n=%d seed %d: not converged after %d steps", n, seed, res.Steps)
			}
			sum += float64(res.ConvergedInteractions)
		}
		mean := sum / seeds
		nlogn := float64(n) * math.Log(float64(n))
		if ratio := mean / nlogn; ratio < 0.05 || ratio > 30 {
			t.Fatalf("n=%d: mean interactions to convergence %.0f is %.2f·n·ln n, outside the [0.05, 30] envelope", n, mean, ratio)
		}
	}
}

func TestHermanTokenParityAndConvergence(t *testing.T) {
	const n = 51
	for _, k := range []int{3, 5, 9} {
		hm, err := NewHerman(n)
		if err != nil {
			t.Fatal(err)
		}
		init, err := InitTokens(n, k)
		if err != nil {
			t.Fatal(err)
		}
		// The initial configuration must carry exactly k tokens.
		cfg0 := make([]State, n)
		for i := range cfg0 {
			cfg0[i] = init(i, n, 0)
		}
		if got := hm.Measure(cfg0); got != k {
			t.Fatalf("InitTokens(%d, %d) built %d tokens", n, k, got)
		}
		parity := &parityObserver{t: t}
		res, err := Run(Config{N: n, Ring: hm, Init: init, RNG: xrand.New(uint64(k)), Observer: parity})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Converged {
			t.Fatalf("k=%d: not converged after %d steps (measure %d)", k, res.Steps, res.Measure)
		}
		if res.Measure != 1 {
			t.Fatalf("k=%d: final token count %d, want 1", k, res.Measure)
		}
		if parity.steps == 0 {
			t.Fatal("observer saw no super-steps")
		}
	}
}

// parityObserver checks the odd-token invariant and token monotonicity
// every super-step.
type parityObserver struct {
	t     *testing.T
	steps int
	last  int
}

func (p *parityObserver) OnSuperStep(s SuperStepStats) {
	p.steps++
	if s.Measure%2 == 0 {
		p.t.Fatalf("step %d: even token count %d on an odd ring", s.Step, s.Measure)
	}
	if p.last != 0 && s.Measure > p.last {
		p.t.Fatalf("step %d: token count rose from %d to %d", s.Step, p.last, s.Measure)
	}
	p.last = s.Measure
}

// fixpointProtocol sends every agent to state 1 and then never changes
// anything; its measure is the number of agents NOT at 1 plus one, so it
// reaches measure 1 exactly when the configuration is silent.
type fixpointProtocol struct{}

func (fixpointProtocol) Name() string { return "fixpoint" }
func (fixpointProtocol) Transition(a, b State, coin uint64) (State, State) {
	return 1, 1
}
func (fixpointProtocol) Measure(cfg []State) int {
	m := 1
	for _, s := range cfg {
		if s != 1 {
			m++
		}
	}
	return m
}

func TestSilentConfigurationHalts(t *testing.T) {
	res, err := Run(Config{N: 64, Pair: fixpointProtocol{}, RNG: xrand.New(3)})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("fixpoint protocol did not converge in %d steps", res.Steps)
	}
	if res.Measure != 1 {
		t.Fatalf("final measure %d, want 1", res.Measure)
	}
	// With all agents at the fixpoint, no interaction changes state: the
	// run must stop long before the default budget.
	if res.Steps >= 256 {
		t.Fatalf("run consumed %d steps; silent halting did not trigger", res.Steps)
	}
}

func TestConfigValidation(t *testing.T) {
	le, _ := NewLeaderElection(8)
	hm, _ := NewHerman(9)
	for name, cfg := range map[string]Config{
		"no-protocol":   {N: 8},
		"two-protocols": {N: 9, Pair: le, Ring: hm},
		"pair-n-1":      {N: 1, Pair: le},
		"neg-shards":    {N: 8, Pair: le, shards: -1},
		"neg-max-steps": {N: 8, Pair: le, MaxSteps: -5},
		// Below WorkersAuto: the one rule (sched.CheckWorkers) the
		// phone-call engine and the facade apply too, not an inline run.
		"pair-workers-below-auto": {N: 8, Pair: le, Workers: -7},
		"ring-workers-below-auto": {N: 9, Ring: hm, Workers: -2},
		// PairDraw's agent indices are int32: rejected before the 8 GiB
		// configuration would be allocated.
		"pair-n-over-int32": {N: math.MaxInt32 + 1, Pair: fixpointProtocol{}},
	} {
		if _, err := Run(cfg); err == nil {
			t.Errorf("%s: Run accepted an invalid config", name)
		}
	}
	if _, err := NewHerman(10); err == nil {
		t.Error("NewHerman accepted an even ring")
	}
	if _, err := NewHerman(1); err == nil {
		t.Error("NewHerman accepted n=1")
	}
	if _, err := InitTokens(9, 4); err == nil {
		t.Error("InitTokens accepted an even token count")
	}
	if _, err := NewLeaderElection(1); err == nil {
		t.Error("NewLeaderElection accepted n=1")
	}
}
