package phonecall

import (
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
