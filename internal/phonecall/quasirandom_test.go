package phonecall

import (
	"math"
	"testing"

	"regcast/internal/graph"
	"regcast/internal/xrand"
)

func TestDialStrategyString(t *testing.T) {
	if DialUniform.String() != "uniform" || DialQuasirandom.String() != "quasirandom" {
		t.Error("strategy names wrong")
	}
	if DialStrategy(9).String() == "" {
		t.Error("unknown strategy empty")
	}
}

func TestDialStrategyValidation(t *testing.T) {
	g := testGraph(t, 16, 4, 30)
	base := Config{Topology: NewStatic(g), Protocol: pushProto{1, 10}, RNG: xrand.New(1)}

	bad := base
	bad.DialStrategy = DialStrategy(7)
	if _, err := NewEngine(bad); err == nil {
		t.Error("unknown strategy accepted")
	}
	ok := base
	ok.DialStrategy = DialQuasirandom
	if _, err := NewEngine(ok); err != nil {
		t.Errorf("valid quasirandom config rejected: %v", err)
	}
}

func TestQuasirandomCoversListWithoutRepeats(t *testing.T) {
	// On a star hub with degree 6 and k=1 push, the quasirandom cursor
	// walks the whole neighbour list: all 6 leaves are informed after
	// exactly 6 rounds, deterministically (only the start is random).
	const leaves = 6
	edges := make([][2]int32, leaves)
	for i := 0; i < leaves; i++ {
		edges[i] = [2]int32{0, int32(i + 1)}
	}
	g, err := graph.NewFromEdges(leaves+1, edges)
	if err != nil {
		t.Fatal(err)
	}
	for seed := uint64(0); seed < 10; seed++ {
		res, rounds, err := RunRounds(Config{
			Topology:     NewStatic(g),
			Protocol:     pushProto{1, leaves},
			Source:       0,
			RNG:          xrand.New(seed),
			DialStrategy: DialQuasirandom,
		})
		if err != nil {
			t.Fatal(err)
		}
		if !res.AllInformed {
			t.Fatalf("seed %d: quasirandom hub informed %d/%d in %d rounds",
				seed, res.Informed, leaves+1, leaves)
		}
		// Exactly one new leaf per round: no repeats within a sweep.
		for _, rm := range rounds {
			if rm.NewlyInformed != 1 {
				t.Fatalf("seed %d round %d informed %d leaves (want exactly 1)",
					seed, rm.Round, rm.NewlyInformed)
			}
		}
	}
}

func TestQuasirandomBroadcastCompletes(t *testing.T) {
	g := testGraph(t, 512, 8, 31)
	res, err := Run(Config{
		Topology:     NewStatic(g),
		Protocol:     pushProto{1, 100},
		RNG:          xrand.New(32),
		DialStrategy: DialQuasirandom,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.AllInformed {
		t.Fatalf("quasirandom push informed %d/512", res.Informed)
	}
}

func TestQuasirandomFourChoiceWindow(t *testing.T) {
	// With k=4 on a degree-8 node, two consecutive rounds cover all 8
	// neighbours: a pushing hub informs 4 + 4 distinct leaves.
	const leaves = 8
	edges := make([][2]int32, leaves)
	for i := 0; i < leaves; i++ {
		edges[i] = [2]int32{0, int32(i + 1)}
	}
	g, err := graph.NewFromEdges(leaves+1, edges)
	if err != nil {
		t.Fatal(err)
	}
	_, rounds, err := RunRounds(Config{
		Topology:     NewStatic(g),
		Protocol:     pushProto{4, 2},
		Source:       0,
		RNG:          xrand.New(33),
		DialStrategy: DialQuasirandom,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rounds[0].NewlyInformed != 4 || rounds[1].NewlyInformed != 4 {
		t.Errorf("per-round informs %d, %d — want 4, 4 (cursor must not rewind)",
			rounds[0].NewlyInformed, rounds[1].NewlyInformed)
	}
}

// TestQuasirandomStartIsUniform: the quasirandom model starts each node's
// cursor at a uniformly random position of its neighbour list. Over a fixed
// range of seeds, the hub of a star with d leaves dials its first target in
// round 1; that target's position in the hub's list must fit the uniform
// law on d cells by Pearson's chi-square, refused above the Wilson–Hilferty
// quantile at z = 5 (internal/xrand/laws_test.go's threshold, fixed with
// the seeds before the first run: a uniform start fails with probability
// about 3·10⁻⁷). A start that never reaches the last position fails.
func TestQuasirandomStartIsUniform(t *testing.T) {
	const z = 5
	for _, d := range []int{6, 16} {
		edges := make([][2]int32, d)
		for i := range edges {
			edges[i] = [2]int32{0, int32(i + 1)}
		}
		g, err := graph.NewFromEdges(d+1, edges)
		if err != nil {
			t.Fatal(err)
		}
		pos := make(map[int32]int, d)
		for i, w := range g.Neighbors(0) {
			pos[w] = i
		}
		draws := max(20*d, 20000)
		counts := make([]int, d)
		for seed := uint64(0); seed < uint64(draws); seed++ {
			res, err := Run(Config{
				Topology:     NewStatic(g),
				Protocol:     pushProto{1, 1},
				RNG:          xrand.New(1_000_000 + seed),
				DialStrategy: DialQuasirandom,
			})
			if err != nil {
				t.Fatal(err)
			}
			first := -1
			for v, ia := range res.InformedAt {
				if v != 0 && ia == 1 {
					first = v
				}
			}
			if res.Informed != 2 || first < 0 {
				t.Fatalf("d=%d seed %d: round 1 informed %d nodes, want the source and one leaf", d, seed, res.Informed)
			}
			counts[pos[int32(first)]]++
		}
		want := float64(draws) / float64(d)
		var stat float64
		for _, c := range counts {
			diff := float64(c) - want
			stat += diff * diff / want
		}
		df := float64(d - 1)
		h := 2 / (9 * df)
		if limit := df * math.Pow(1-h+z*math.Sqrt(h), 3); stat > limit {
			t.Errorf("d=%d: chi-square %.1f over %d start positions exceeds %.1f (z=%d); counts %v", d, stat, d, limit, z, counts)
		}
	}
}
