package phonecall_test

import (
	"fmt"
	"log"

	"regcast/internal/baseline"
	"regcast/internal/graph"
	"regcast/internal/phonecall"
	"regcast/internal/xrand"
)

// halfway is an Observer that notes the first round after which at least
// half of n nodes are informed.
type halfway struct{ n, round int }

func (h *halfway) OnRound(rm phonecall.RoundMetrics) {
	if h.round == 0 && 2*rm.Informed >= h.n {
		h.round = rm.Round
	}
}
func (h *halfway) OnInformed(node, round int) {}

// Example runs the classical one-choice push protocol and watches the
// per-round stream through an Observer: exponential growth, then the long
// saturation tail that costs push its Θ(n·log n) transmissions.
func Example() {
	g, err := graph.RandomRegular(1024, 8, xrand.New(1))
	if err != nil {
		log.Fatal(err)
	}
	push, err := baseline.NewPush(1024, 1)
	if err != nil {
		log.Fatal(err)
	}
	half := &halfway{n: 1024}
	res, err := phonecall.Run(phonecall.Config{
		Topology:  phonecall.NewStatic(g),
		Protocol:  push,
		RNG:       xrand.New(2),
		StopEarly: true,
		Observer:  half,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("completed:", res.AllInformed)
	fmt.Println("half informed by round:", half.round)
	fmt.Println("tail rounds after half:", res.FirstAllInformed-half.round)
	// Output:
	// completed: true
	// half informed by round: 12
	// tail rounds after half: 9
}
