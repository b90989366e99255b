package core

import (
	"testing"

	"regcast/internal/graph"
	"regcast/internal/phonecall"
	"regcast/internal/xrand"
)

// TestFourChoiceParallelDeterminism is the determinism contract for the
// paper's protocols on the sharded engine: same seed ⇒ identical
// informed-round traces for 1 and 8 workers, for both FourChoice
// variants and the sequentialised footnote-2 model.
func TestFourChoiceParallelDeterminism(t *testing.T) {
	const n, d = 1 << 10, 8
	g, err := graph.RandomRegular(n, d, xrand.New(17))
	if err != nil {
		t.Fatal(err)
	}
	alg1, err := NewAlgorithm1(n)
	if err != nil {
		t.Fatal(err)
	}
	alg2, err := NewAlgorithm2(n)
	if err != nil {
		t.Fatal(err)
	}
	seq := NewSequentialised(alg1)

	cases := []struct {
		name  string
		proto phonecall.Protocol
	}{
		{"algorithm1", alg1},
		{"algorithm2", alg2},
		{"sequentialised", seq},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			run := func(workers int) phonecall.Result {
				res, err := phonecall.Run(phonecall.Config{
					Topology: phonecall.NewStatic(g),
					Protocol: tc.proto,
					Source:   3,
					RNG:      xrand.New(4242),
					Workers:  workers,
				})
				if err != nil {
					t.Fatal(err)
				}
				return res
			}
			a, b := run(1), run(8)
			if a.Transmissions != b.Transmissions || a.FirstAllInformed != b.FirstAllInformed {
				t.Fatalf("worker counts disagree: %+v vs %+v", a, b)
			}
			for v := range a.InformedAt {
				if a.InformedAt[v] != b.InformedAt[v] {
					t.Fatalf("InformedAt[%d]: %d vs %d", v, a.InformedAt[v], b.InformedAt[v])
				}
			}
			if !a.AllInformed {
				t.Errorf("%s did not complete on the sharded engine (%d/%d)",
					tc.proto.Name(), a.Informed, a.AliveNodes)
			}
		})
	}
}
