package regcast_test

import (
	"context"
	"testing"

	"regcast"
	"regcast/internal/core"
)

// TestRunnerWithoutFastPath pins the facade's two-path engine contract:
// the CSR fast path (the default on Static topologies) and the reference
// interface path produce bit-identical results, so forcing the reference
// path must reproduce the exact golden traces of the fast path — inline
// and pooled.
func TestRunnerWithoutFastPath(t *testing.T) {
	g := goldenGraph(t)
	four, err := core.New(2048, 8)
	if err != nil {
		t.Fatal(err)
	}
	scenario, err := regcast.NewScenario(regcast.Static(g), four, regcast.WithSeed(42))
	if err != nil {
		t.Fatal(err)
	}
	res, err := regcast.Run(context.Background(), scenario, regcast.WithoutFastPath())
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "seq/fourchoice/no-fast-path", res, golden{46, 23, 2048, 32720, 376832, 0xfcfefd4eec75bfd1})

	res, err = regcast.Run(context.Background(), scenario,
		regcast.WithWorkers(2), regcast.WithShards(16), regcast.WithoutFastPath())
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "sharded16/fourchoice/no-fast-path", res, golden{46, 23, 2048, 32720, 376832, 0xd6df1d4371527f14})
}
