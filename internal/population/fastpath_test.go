package population

import (
	"strings"
	"testing"

	"regcast/internal/xrand"
)

// plainPair and plainRing hide every optional interface of the protocol
// they wrap, so the engine takes the uncompiled arm for it: one interface
// call per interaction (or per agent) and the Measure scan.
type (
	plainPair struct{ PairProtocol }
	plainRing struct{ RingProtocol }
)

// plain wraps cfg's protocol so the run compiles nothing.
func plain(cfg Config) Config {
	if cfg.Pair != nil {
		cfg.Pair = plainPair{cfg.Pair}
	} else {
		cfg.Ring = plainRing{cfg.Ring}
	}
	return cfg
}

// arm names the apply arm compile chose for e.
func arm(e *engine) string {
	switch {
	case e.ringUpd != nil:
		return "ring-table"
	case e.cfg.Ring != nil:
		return "ring"
	case e.table != nil:
		return "table"
	case e.batch != nil:
		return "batch"
	default:
		return "uncompiled"
	}
}

// fastpathCases is the committed-digest matrix: every built-in protocol
// from an adversarial start. Herman exercises the ring table; leader
// election the batch kernel (25 state bits — no table, no counts);
// approximate majority the table with its occupancy vector. digest holds
// the traceHash at Shards 0 and 7 under seed 99, recorded while the
// interpreter (scalar draws, per-pair dispatch) still ran, so every arm
// and every step shape is pinned to it.
func fastpathCases(t *testing.T) []struct {
	name   string
	cfg    Config
	arm    string
	digest [2]uint64
} {
	t.Helper()
	le, err := NewLeaderElection(3000)
	if err != nil {
		t.Fatal(err)
	}
	hm, err := NewHerman(301)
	if err != nil {
		t.Fatal(err)
	}
	hmInit, err := InitTokens(301, 3)
	if err != nil {
		t.Fatal(err)
	}
	return []struct {
		name   string
		cfg    Config
		arm    string
		digest [2]uint64
	}{
		{"leader/all-leaders", Config{N: 3000, Pair: le, Init: InitAllLeaders, MaxSteps: 40},
			"batch", [2]uint64{0xc5a954be12dd7edf, 0xe3a95ce3f799c60e}},
		{"leader/poisoned", Config{N: 3000, Pair: le, Init: initPoisoned, MaxSteps: 40},
			"batch", [2]uint64{0x6387dc7178d6024f, 0x2c5d98a2d4f2b26e}},
		{"herman/3-tokens", Config{N: 301, Ring: hm, Init: hmInit, MaxSteps: 60},
			"ring-table", [2]uint64{0x4b1d9c89ce91fab1, 0xfd68f2acf09ec0f1}},
		{"majority/close-race", Config{N: 3000, Pair: NewApproxMajority(), Init: InitMajority(0.51), MaxSteps: 40},
			"table", [2]uint64{0x36835f0dd9508901, 0x1b4ce78b743f5600}},
		{"majority/blank-heavy", Config{N: 3000, Pair: NewApproxMajority(), Init: func(i, n int, coin uint64) State {
			if i == 0 {
				return MajX
			}
			if i == 1 {
				return MajY
			}
			return MajBlank
		}, MaxSteps: 40}, "table", [2]uint64{0xd1d561f996c4706e, 0x98b1e20d61fa771c}},
	}
}

// initPoisoned is the worst-case start documented on LeaderElection: no
// leaders, expired timers, and every agent's max-seen value poisoned to
// the top of the rank space, so recovery must wait for a promotion to
// draw the maximum rank.
func initPoisoned(i, n int, coin uint64) State {
	return leState(false, leValMask, leTimMask)
}

// TestFastPathMatchesReference pins every arm to the committed digests:
// for every protocol, every worker count and both shard counts, the
// compiled run and the wrapped (uncompiled) run each reproduce the full
// trace (per-step stats, final configuration, result) recorded from the
// interpreter.
func TestFastPathMatchesReference(t *testing.T) {
	for _, tc := range fastpathCases(t) {
		for si, shards := range []int{0, 7} {
			for _, workers := range []int{0, 1, 4} {
				for _, wrapped := range []bool{false, true} {
					cfg := tc.cfg
					cfg.Workers, cfg.shards = workers, shards
					want := tc.arm
					if wrapped {
						cfg = plain(cfg)
						want = "uncompiled"
						if cfg.Ring != nil {
							want = "ring"
						}
					}
					cfg.RNG = xrand.New(99)
					e, err := newEngine(cfg)
					if err != nil {
						t.Fatal(err)
					}
					if got := arm(e); got != want {
						t.Fatalf("%s wrapped=%v: arm %q, want %q", tc.name, wrapped, got, want)
					}
					cfg.RNG = xrand.New(99)
					if got, _ := traceHash(t, cfg); got != tc.digest[si] {
						t.Errorf("%s workers=%d shards=%d wrapped=%v: trace %#x, want %#x",
							tc.name, workers, shards, wrapped, got, tc.digest[si])
					}
				}
			}
		}
	}
}

// TestCountsMatchesScan cross-checks the occupancy vector the table arm
// keeps: after every super-step of a majority run, the engine's
// counts-derived measure must equal a fresh O(n) scan of the live
// configuration, and at the end the counts vector itself must equal the
// final configuration's histogram.
func TestCountsMatchesScan(t *testing.T) {
	p := NewApproxMajority()
	e, err := newEngine(Config{N: 2000, Pair: p, Init: InitMajority(0.52),
		MaxSteps: 50, RNG: xrand.New(17)})
	if err != nil {
		t.Fatal(err)
	}
	if e.counts == nil || e.table == nil || e.countsProto == nil {
		t.Fatalf("majority run should engage the table with counts (table=%v counts=%v)",
			e.table != nil, e.countsProto != nil)
	}
	for step := 1; step <= 50; step++ {
		e.pairStep()
		if got, want := e.measure(), p.Measure(e.states); got != want {
			t.Fatalf("step %d: counts measure %d != scan measure %d", step, got, want)
		}
	}
	if st, got, want := histogramMismatch(e); st >= 0 {
		t.Fatalf("counts[%d] = %d, configuration histogram has %d", st, got, want)
	}
}

// histogramMismatch compares e.counts with the histogram of e.states and
// returns the first state where they differ, or -1.
func histogramMismatch(e *engine) (st int, got, want int64) {
	hist := make([]int64, len(e.counts))
	for _, s := range e.states {
		hist[s]++
	}
	for st := range hist {
		if e.counts[st] != hist[st] {
			return st, e.counts[st], hist[st]
		}
	}
	return -1, 0, 0
}

// TestLeaderApplyPairsMatchesTransition pins the hand-fused leader
// kernel against per-pair Transition on random configurations,
// including timer-expired states that arm the promotion lane.
func TestLeaderApplyPairsMatchesTransition(t *testing.T) {
	le, err := NewLeaderElection(64)
	if err != nil {
		t.Fatal(err)
	}
	r := xrand.New(23)
	for trial := 0; trial < 200; trial++ {
		states := make([]State, 64)
		for i := range states {
			// Random role/value, timer biased to the promotion region.
			tim := State(r.Uint64()) & leTimMask
			if trial%2 == 1 {
				tim = leTimMask // expired: promotion lane armed
			}
			states[i] = leState(r.Uint64()&1 == 1, State(r.Uint64())&leValMask, tim)
		}
		pairs := make([]PairDraw, 32)
		r.FillPairDraws(pairs, 64)

		want := append([]State(nil), states...)
		wantChanged := 0
		for _, d := range pairs {
			na, nb := le.Transition(want[d.A], want[d.B], d.Coin)
			if na != want[d.A] {
				wantChanged++
			}
			if nb != want[d.B] {
				wantChanged++
			}
			want[d.A], want[d.B] = na, nb
		}

		gotChanged := le.ApplyPairs(states, pairs)
		if gotChanged != wantChanged {
			t.Fatalf("trial %d: changed %d != %d", trial, gotChanged, wantChanged)
		}
		for i := range states {
			if states[i] != want[i] {
				t.Fatalf("trial %d: agent %d: %#x != %#x", trial, i, states[i], want[i])
			}
		}
	}
}

// TestTableCompilerDeclinesMisdeclaredProtocols: a protocol whose
// Transition escapes its declared StateBound must fall back to the
// uncompiled arm, not index out of range.
func TestTableCompilerDeclinesMisdeclaredProtocols(t *testing.T) {
	_, err := Run(Config{N: 100, Pair: escapingProto{}, MaxSteps: 5, RNG: xrand.New(3)})
	if err == nil || !strings.Contains(err.Error(), "Transition(0, 0, coin 0) = (2, 0), outside its StateBound 2") {
		t.Fatalf("Run err = %v, want the escaping Transition named", err)
	}
	// Wrapped, the same protocol declares nothing, so nothing is checked.
	if _, err := Run(plain(Config{N: 100, Pair: escapingProto{}, MaxSteps: 5, RNG: xrand.New(3)})); err != nil {
		t.Fatal(err)
	}
	// A shape past the table caps is not enumerated: it declines and runs.
	e, err := newEngine(Config{N: 100, Pair: wideProto{}, MaxSteps: 5, RNG: xrand.New(3)})
	if err != nil {
		t.Fatal(err)
	}
	if e.table != nil {
		t.Fatalf("table compiled for StateBound %d > MaxTableStates", wideProto{}.StateBound())
	}
}

// escapingProto declares 2 states but transitions to state 2.
type escapingProto struct{}

// wideProto declares more states than the table compiler takes.
type wideProto struct{ escapingProto }

func (wideProto) StateBound() int { return MaxTableStates + 1 }

func (escapingProto) Name() string { return "escaping" }
func (escapingProto) Transition(a, b State, coin uint64) (State, State) {
	return 2, b
}
func (escapingProto) Measure(cfg []State) int { return 1 }
func (escapingProto) StateBound() int         { return 2 }
func (escapingProto) CoinBits() int           { return 0 }

// TestPairStepSteadyStateAllocFree guards the 0-alloc steady state on
// every arm: with the quota buffers preallocated at construction, pair
// and ring super-steps allocate nothing.
func TestPairStepSteadyStateAllocFree(t *testing.T) {
	le, err := NewLeaderElection(5000)
	if err != nil {
		t.Fatal(err)
	}
	hm, err := NewHerman(5001)
	if err != nil {
		t.Fatal(err)
	}
	hmInit, err := InitTokens(5001, 3)
	if err != nil {
		t.Fatal(err)
	}
	majority := Config{N: 5000, Pair: NewApproxMajority(), Init: InitMajority(0.6)}
	leader := Config{N: 5000, Pair: le, Init: InitAllLeaders}
	ring := Config{N: 5001, Ring: hm, Init: hmInit}
	for _, tc := range []struct {
		arm string
		cfg Config
	}{
		{"table", majority},
		{"batch", leader},
		{"uncompiled", plain(leader)},
		{"ring-table", ring},
		{"ring", plain(ring)},
	} {
		cfg := tc.cfg
		cfg.MaxSteps, cfg.RNG = 100, xrand.New(7)
		e, err := newEngine(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got := arm(e); got != tc.arm {
			t.Fatalf("arm %q, want %q", got, tc.arm)
		}
		allocs := testing.AllocsPerRun(20, func() {
			if e.cfg.Pair != nil {
				e.pairStep()
			} else {
				e.ringStep()
			}
		})
		if allocs != 0 {
			t.Errorf("%s: %v allocs per super-step, want 0", tc.arm, allocs)
		}
	}
}

// fuzzProto is a random TableProtocol/CountsProtocol over s declared
// states and c coin bits. tab holds the successor pair of every (a, b,
// coin) cell for a, b ≤ s — one state past the bound — so a run that
// escapes still has a defined transition; its measure is the number of
// distinct states present.
type fuzzProto struct {
	s, c int
	tab  []State
}

func (p *fuzzProto) cell(a, b State, coin uint64) int {
	return 2 * ((int(a)*(p.s+1)+int(b))<<p.c | int(coin&(1<<p.c-1)))
}

func (p *fuzzProto) Name() string    { return "fuzz-table" }
func (p *fuzzProto) StateBound() int { return p.s }
func (p *fuzzProto) CoinBits() int   { return p.c }
func (p *fuzzProto) Transition(a, b State, coin uint64) (State, State) {
	i := p.cell(a, b, coin)
	return p.tab[i], p.tab[i+1]
}
func (p *fuzzProto) Measure(cfg []State) int {
	counts := make([]int64, p.s+1)
	for _, st := range cfg {
		counts[st]++
	}
	return p.MeasureCounts(counts)
}
func (p *fuzzProto) MeasureCounts(counts []int64) int {
	m := 0
	for _, c := range counts {
		if c > 0 {
			m++
		}
	}
	return m
}

// FuzzTableCompile drives the table compiler with random transition
// functions over S ≤ 8 declared states and c ≤ 2 coin bits, optionally
// escaping the bound in one Transition cell (escape 1) or at one Init
// agent (escape 2). An escape must be the run's error; otherwise the
// table must compile, the compiled trace must equal the wrapped run's,
// and the occupancy vector must end equal to the final configuration's
// histogram.
func FuzzTableCompile(f *testing.F) {
	f.Add(uint64(1), uint8(3), uint8(0), uint8(0), uint8(40))  // deterministic
	f.Add(uint64(2), uint8(5), uint8(2), uint8(0), uint8(100)) // reads two coin bits
	f.Add(uint64(3), uint8(4), uint8(1), uint8(1), uint8(60))  // Transition escapes
	f.Add(uint64(4), uint8(2), uint8(0), uint8(2), uint8(30))  // Init escapes
	f.Fuzz(func(t *testing.T, seed uint64, s, c, escape, n uint8) {
		r := xrand.New(seed)
		p := &fuzzProto{s: 1 + int(s)%8, c: int(c) % 3}
		p.tab = make([]State, 2*(p.s+1)*(p.s+1)<<p.c)
		for i := range p.tab {
			p.tab[i] = State(r.IntN(p.s))
		}
		escape %= 3
		if escape == 1 {
			cell := p.cell(State(r.IntN(p.s)), State(r.IntN(p.s)), uint64(r.IntN(1<<p.c)))
			p.tab[cell+r.IntN(2)] = State(p.s)
		}
		agents := 2 + int(n)%190
		escAgent := r.IntN(agents)
		cfg := Config{N: agents, Pair: p, MaxSteps: 8, shards: 3,
			Init: func(i, n int, coin uint64) State {
				if escape == 2 && i == escAgent {
					return State(p.s)
				}
				return State(coin % uint64(p.s))
			}}

		cfg.RNG = xrand.New(seed)
		e, err := newEngine(cfg)
		if escape != 0 {
			if err == nil || !strings.Contains(err.Error(), "outside its StateBound") {
				t.Fatalf("escape=%d: newEngine err = %v, want the escape reported", escape, err)
			}
			return
		}
		if err != nil {
			t.Fatal(err)
		}
		if e.table == nil {
			t.Fatal("table did not compile for a protocol that keeps its bound")
		}
		e.run()
		if st, got, want := histogramMismatch(e); st >= 0 {
			t.Fatalf("counts[%d] = %d, configuration histogram has %d", st, got, want)
		}

		cfg.RNG = xrand.New(seed)
		compiled, _ := traceHash(t, cfg)
		wrapped := plain(cfg)
		wrapped.RNG = xrand.New(seed)
		if ref, _ := traceHash(t, wrapped); compiled != ref {
			t.Fatalf("escape=%d: compiled trace %#x != wrapped %#x", escape, compiled, ref)
		}
	})
}

// TestApproxMajorityConverges sanity-checks the new protocol's
// dynamics: a 60/40 race must reach consensus on X.
func TestApproxMajorityConverges(t *testing.T) {
	res, err := Run(Config{N: 2000, Pair: NewApproxMajority(),
		Init: InitMajority(0.6), RNG: xrand.New(41)})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("no consensus after %d steps (measure %d)", res.Steps, res.Measure)
	}
	for i, s := range res.Final {
		if s != MajX {
			t.Fatalf("agent %d ended %d, want majority opinion X", i, s)
		}
	}
}
