// TCP cluster example: sixteen gossip nodes, each with its own loopback
// TCP listener, spreading a rumour by the push&pull schedule over real
// sockets (the gossip daemon: one persistent connection per peer) — the
// deployment-shaped counterpart of the simulator, driven
// through the same public Scenario/Runner API: only the engine changes,
// the scenario and the streaming observer stay identical.
package main

import (
	"context"
	"fmt"
	"log"

	"regcast"
	"regcast/internal/baseline"
)

func main() {
	const n, d, k = 16, 4, 2

	g, err := regcast.NewRegularGraph(n, d, regcast.NewRand(3))
	if err != nil {
		log.Fatal(err)
	}
	// The protocol decides on the daemon as in the simulator: each tick is
	// one round, in which every node dials k neighbours and pushes, or
	// answers pull requests, exactly when the schedule says so. Only
	// packets that carry the rumour count as transmissions.
	proto, err := baseline.NewPushPull(n, k)
	if err != nil {
		log.Fatal(err)
	}

	scenario, err := regcast.NewScenario(regcast.Static(g), proto,
		regcast.WithSeed(3),
		regcast.WithObserver(regcast.ObserverFuncs{
			Round: func(rs regcast.RoundStats) {
				fmt.Printf("tick %2d: %2d/%d nodes know the rumour (%d transmissions this tick)\n",
					rs.Round, rs.Informed, n, rs.Transmissions)
			},
		}))
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("rumour inserted at node 0; gossiping over real TCP sockets...\n\n")
	res, err := regcast.Run(context.Background(), scenario,
		regcast.WithEngine(regcast.EngineDaemonTransport))
	if err != nil {
		log.Fatal(err)
	}
	if !res.AllInformed {
		log.Fatalf("rumour reached only %d/%d nodes in %d ticks", res.Informed, n, res.Rounds)
	}
	fmt.Printf("\nall %d nodes informed over TCP in %d ticks (%d transmissions over the %d-tick schedule)\n",
		n, res.FirstAllInformed, res.Transmissions, res.Rounds)
}
