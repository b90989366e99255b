package regcast_test

import (
	"context"
	"fmt"
	"slices"
	"testing"
	"time"

	"regcast"
	"regcast/internal/baseline"
)

// TestRoundStreamMatchesInformedAt holds the two ways a run reports its
// receipts to each other on both engines: per round, the OnRound stream's
// NewlyInformed equals the number of InformedAt entries stamped with that
// round, and a run that informs everyone reports its latest receipt round
// as FirstAllInformed. The daemon runs under each fault regime of its plan;
// a timed-out tick is documented as skewed, so none may time out.
func TestRoundStreamMatchesInformedAt(t *testing.T) {
	const n, d = 48, 6
	half := make([]int, n/2)
	for i := range half {
		half[i] = i
	}
	type regime struct {
		name   string
		engine regcast.Engine
		sc     []regcast.ScenarioOption
		run    []regcast.RunnerOption
	}
	daemon := func(name string, cfg *regcast.FaultConfig) regime {
		r := regime{name: "daemon/" + name, engine: regcast.EngineDaemonTransport}
		if cfg != nil {
			r.run = []regcast.RunnerOption{regcast.WithTransportFaults(*cfg)}
		}
		return r
	}
	regimes := []regime{
		{name: "simulator/none", engine: regcast.EngineSimulator},
		{name: "simulator/loss", engine: regcast.EngineSimulator, sc: []regcast.ScenarioOption{regcast.WithMessageLoss(0.3)}},
		daemon("none", nil),
		daemon("drop", &regcast.FaultConfig{Seed: 1, Drop: 0.3}),
		daemon("drop+dup", &regcast.FaultConfig{Seed: 2, Drop: 0.1, Duplicate: 0.3}),
		daemon("partition+crash", &regcast.FaultConfig{
			Seed:       3,
			Partitions: []regcast.PartitionWindow{{From: 1, Until: 3, A: half}},
			Crashes:    []regcast.CrashWindow{{Node: 5, From: 1, Until: 3}},
		}),
		daemon("delay", &regcast.FaultConfig{Seed: 4, DelayProb: 0.5, Delay: time.Millisecond}),
	}
	g, err := regcast.NewRegularGraph(n, d, regcast.NewRand(7))
	if err != nil {
		t.Fatal(err)
	}
	proto, err := baseline.NewPushPull(n, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, rg := range regimes {
		for seed := uint64(1); seed <= 5; seed++ {
			t.Run(fmt.Sprintf("%s/seed=%d", rg.name, seed), func(t *testing.T) {
				if rg.engine == regcast.EngineDaemonTransport && testing.Short() {
					t.Skip("short mode: skipping daemon runs")
				}
				var newly []int
				obs := regcast.ObserverFuncs{Round: func(rs regcast.RoundStats) {
					if rs.Round != len(newly)+1 {
						t.Fatalf("OnRound reported round %d after %d rounds", rs.Round, len(newly))
					}
					newly = append(newly, rs.NewlyInformed)
				}}
				opts := append([]regcast.ScenarioOption{regcast.WithSeed(seed), regcast.WithObserver(obs)}, rg.sc...)
				sc, err := regcast.NewScenario(regcast.Static(g), proto, opts...)
				if err != nil {
					t.Fatal(err)
				}
				res, err := regcast.Run(context.Background(), sc, append([]regcast.RunnerOption{regcast.WithEngine(rg.engine)}, rg.run...)...)
				if err != nil {
					t.Fatal(err)
				}
				if res.TickTimeouts != 0 {
					t.Fatalf("%d tick timeouts", res.TickTimeouts)
				}
				if len(newly) != res.Rounds {
					t.Fatalf("OnRound reported %d rounds, Result.Rounds = %d", len(newly), res.Rounds)
				}
				stamped := make([]int, res.Rounds+1)
				latest := 0
				for v, at := range res.InformedAt {
					if at == regcast.Uninformed {
						continue
					}
					if at < 0 || int(at) > res.Rounds {
						t.Fatalf("node %d stamped round %d outside [0, %d]", v, at, res.Rounds)
					}
					stamped[at]++
					latest = max(latest, int(at))
				}
				if !slices.Equal(newly, stamped[1:]) {
					t.Errorf("OnRound NewlyInformed per round\n %v\nInformedAt histogram\n %v", newly, stamped[1:])
				}
				if res.AllInformed && res.FirstAllInformed != latest {
					t.Errorf("FirstAllInformed = %d, latest receipt round %d", res.FirstAllInformed, latest)
				}
			})
		}
	}
}
