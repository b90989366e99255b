// Command overlay-sim stress-tests the d-regular P2P overlay under churn
// and reports its structural health over time: membership, degree
// integrity, connectivity of snapshots, and spectral expansion drift. The
// final snapshot additionally gets a four-choice broadcast check run
// through the regcast facade (so -workers selects the engine exactly as
// in broadcast-sim).
//
// Usage:
//
//	overlay-sim -n 1024 -d 8 -rounds 200 -join 0.02 -leave 0.02 -mix 10
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"regcast"
	"regcast/internal/core"
	"regcast/internal/p2p/overlay"
	"regcast/internal/spectral"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "overlay-sim:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		n      = flag.Int("n", 1024, "initial number of peers")
		d      = flag.Int("d", 8, "overlay degree (must be even)")
		rounds = flag.Int("rounds", 200, "churn rounds to simulate")
		join   = flag.Float64("join", 0.02, "per-peer join probability per round")
		leave  = flag.Float64("leave", 0.02, "per-peer leave probability per round")
		mix    = flag.Int("mix", 10, "switch-chain steps per round")
		every  = flag.Int("report", 50, "report snapshot statistics every k rounds")
		common = regcast.AddCommonFlags(flag.CommandLine)
	)
	flag.Parse()
	if err := common.Validate(); err != nil {
		return err
	}
	stopProfiles, err := common.StartProfiles()
	if err != nil {
		return err
	}
	defer stopProfiles()

	master := common.Rand()
	ov, err := overlay.New(*n, *d, 4*(*n), master.Split())
	if err != nil {
		return err
	}
	ch, err := overlay.NewChurner(ov, *join, *leave, *mix, master.Split())
	if err != nil {
		return err
	}

	fmt.Printf("overlay: n=%d d=%d, churn join=%.3f leave=%.3f, %d mix steps/round\n",
		*n, *d, *join, *leave, *mix)
	fmt.Println("round  alive  joins  leaves  connected  |λ2|/2√(d−1)")
	var lastSnap *regcast.Graph
	for r := 1; r <= *rounds; r++ {
		ch.Step(r)
		if r%*every != 0 && r != *rounds {
			continue
		}
		if err := ov.CheckInvariants(); err != nil {
			return fmt.Errorf("round %d: invariant violated: %w", r, err)
		}
		snap, _, err := ov.Snapshot()
		if err != nil {
			return fmt.Errorf("round %d: snapshot: %w", r, err)
		}
		lastSnap = snap
		ratio := 0.0
		connected := snap.IsConnected()
		if connected {
			l2, err := spectral.SecondEigenvalue(snap, 120, master.Split())
			if err != nil {
				return err
			}
			ratio = l2 / spectral.AlonBoppanaBound(*d)
		}
		fmt.Printf("%5d  %5d  %5d  %6d  %9v  %12.3f\n",
			r, ov.AliveCount(), ch.Joins, ch.Leaves, connected, ratio)
	}
	fmt.Println("\nall structural invariants held (exact d-regularity through every join/leave)")

	// Functional check: the overlay is only healthy if it still spreads
	// rumours fast, so run the paper's four-choice broadcast on the final
	// snapshot through the facade.
	if lastSnap != nil && lastSnap.NumNodes() > 0 {
		proto, err := core.New(lastSnap.NumNodes(), *d)
		if err != nil {
			return err
		}
		sopts := []regcast.ScenarioOption{regcast.WithRNG(master.Split()), regcast.WithStopEarly()}
		phases := common.PhaseTotals()
		if phases != nil {
			sopts = append(sopts, regcast.WithObserver(phases))
		}
		scenario, err := regcast.NewScenario(regcast.Static(lastSnap), proto, sopts...)
		if err != nil {
			return err
		}
		res, err := regcast.Run(context.Background(), scenario, common.RunnerOptions()...)
		if err != nil {
			return err
		}
		if res.AllInformed {
			fmt.Printf("broadcast check on final snapshot (%s): completed in %d rounds, %d transmissions\n",
				proto.Name(), res.FirstAllInformed, res.Transmissions)
		} else {
			fmt.Printf("broadcast check on final snapshot (%s): incomplete — informed %d/%d after %d rounds\n",
				proto.Name(), res.Informed, res.AliveNodes, res.Rounds)
		}
		if phases != nil {
			fmt.Println(phases)
		}
	}
	return nil
}
