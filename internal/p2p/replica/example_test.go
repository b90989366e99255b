package replica_test

import (
	"fmt"
	"log"

	"regcast/internal/core"
	"regcast/internal/graph"
	"regcast/internal/p2p/replica"
	"regcast/internal/phonecall"
	"regcast/internal/xrand"
)

// Example runs a small replicated database: two conflicting writes and a
// third key spread as rumours; all replicas converge to the same store.
func Example() {
	const n = 256
	g, err := graph.RandomRegular(n, 8, xrand.New(1))
	if err != nil {
		log.Fatal(err)
	}
	proto, err := core.NewAlgorithm1(n)
	if err != nil {
		log.Fatal(err)
	}
	topo := phonecall.NewStatic(g)
	rep, err := replica.Run(replica.Config{
		Topology: topo,
		Protocol: proto,
		RNG:      xrand.New(2),
	}, []replica.Write{
		{Key: "title", Value: "draft", Origin: 3, Round: 0},
		{Key: "title", Value: "final", Origin: 200, Round: 4},
		{Key: "scratch", Value: "tmp", Origin: 9, Round: 0},
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("converged:", rep.Converged && replica.StoresConverged(topo, rep.Stores))
	title, _ := rep.Stores[128].Get("title")
	fmt.Println("title:", title)
	fmt.Println("keys:", rep.Stores[128].Len())
	// Output:
	// converged: true
	// title: final
	// keys: 2
}
