package core_test

import (
	"fmt"
	"log"

	"regcast/internal/core"
	"regcast/internal/graph"
	"regcast/internal/phonecall"
	"regcast/internal/xrand"
)

// Example broadcasts one message on a random 8-regular graph with the
// paper's four-choice schedule.
func Example() {
	const n, d = 4096, 8
	g, err := graph.RandomRegular(n, d, xrand.New(1))
	if err != nil {
		log.Fatal(err)
	}
	proto, err := core.New(n, d) // picks Algorithm 1 or 2 from d
	if err != nil {
		log.Fatal(err)
	}
	res, err := phonecall.Run(phonecall.Config{
		Topology: phonecall.NewStatic(g),
		Protocol: proto,
		Source:   0,
		RNG:      xrand.New(2),
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("everyone informed:", res.AllInformed)
	fmt.Println("transmissions per node:", res.Transmissions/int64(n))
	// Output:
	// everyone informed: true
	// transmissions per node: 15
}

// ExampleFourChoice_PhaseBoundaries shows how the phased schedule is laid
// out for a given network size estimate.
func ExampleFourChoice_PhaseBoundaries() {
	proto, err := core.NewAlgorithm1(1024, core.WithAlpha(1), core.WithBeta(1))
	if err != nil {
		log.Fatal(err)
	}
	t1, t2, pullEnd, horizon := proto.PhaseBoundaries()
	fmt.Printf("phase 1: rounds 1..%d (newly informed push once)\n", t1)
	fmt.Printf("phase 2: rounds %d..%d (all informed push)\n", t1+1, t2)
	fmt.Printf("phase 3: round %d (informed answer their callers)\n", pullEnd)
	fmt.Printf("phase 4: rounds %d..%d (active nodes push)\n", pullEnd+1, horizon)
	// Output:
	// phase 1: rounds 1..10 (newly informed push once)
	// phase 2: rounds 11..14 (all informed push)
	// phase 3: round 15 (informed answer their callers)
	// phase 4: rounds 16..24 (active nodes push)
}

// ExampleNewSequentialised runs footnote 2's one-dial-per-round variant:
// the same schedule stretched over four times the rounds, with each node
// avoiding its last three partners.
func ExampleNewSequentialised() {
	const n = 1024
	g, err := graph.RandomRegular(n, 8, xrand.New(3))
	if err != nil {
		log.Fatal(err)
	}
	base, err := core.NewAlgorithm1(n)
	if err != nil {
		log.Fatal(err)
	}
	seq := core.NewSequentialised(base)
	res, err := phonecall.Run(phonecall.Config{
		Topology: phonecall.NewStatic(g),
		Protocol: seq,
		RNG:      xrand.New(4),
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("dials per round:", seq.Choices())
	fmt.Println("horizon stretch:", seq.Horizon()/base.Horizon())
	fmt.Println("everyone informed:", res.AllInformed)
	// Output:
	// dials per round: 1
	// horizon stretch: 4
	// everyone informed: true
}
