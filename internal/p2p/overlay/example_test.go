package overlay_test

import (
	"fmt"
	"log"

	"regcast/internal/p2p/overlay"
	"regcast/internal/xrand"
)

// Example maintains an exactly 6-regular overlay through a join and a
// leave.
func Example() {
	o, err := overlay.New(100, 6, 20, xrand.New(1))
	if err != nil {
		log.Fatal(err)
	}
	id, err := o.Join()
	if err != nil {
		log.Fatal(err)
	}
	if err := o.Leave(0); err != nil {
		log.Fatal(err)
	}
	fmt.Println("alive peers:", o.AliveCount())
	fmt.Println("new peer degree:", o.Degree(id))
	fmt.Println("invariants hold:", o.CheckInvariants() == nil)
	// Output:
	// alive peers: 100
	// new peer degree: 6
	// invariants hold: true
}
