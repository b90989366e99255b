package phonecall_test

import (
	"fmt"
	"log"

	"regcast/internal/baseline"
	"regcast/internal/graph"
	"regcast/internal/phonecall"
	"regcast/internal/xrand"
)

// Example runs the classical one-choice push protocol and inspects the
// per-round trace: exponential growth, then the long saturation tail that
// costs push its Θ(n·log n) transmissions.
func Example() {
	g, err := graph.RandomRegular(1024, 8, xrand.New(1))
	if err != nil {
		log.Fatal(err)
	}
	push, err := baseline.NewPush(1024, 1)
	if err != nil {
		log.Fatal(err)
	}
	res, err := phonecall.Run(phonecall.Config{
		Topology:     phonecall.NewStatic(g),
		Protocol:     push,
		RNG:          xrand.New(2),
		RecordRounds: true,
		StopEarly:    true,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("completed:", res.AllInformed)
	half := 0
	for _, rm := range res.PerRound {
		if rm.Informed >= 512 {
			half = rm.Round
			break
		}
	}
	fmt.Println("half informed by round:", half)
	fmt.Println("tail rounds after half:", res.FirstAllInformed-half)
	// Output:
	// completed: true
	// half informed by round: 12
	// tail rounds after half: 9
}
