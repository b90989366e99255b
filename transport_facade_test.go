package regcast_test

import (
	"context"
	"testing"

	"regcast"
	"regcast/internal/baseline"
)

// transportSmoke runs one rumour through the daemon engine via the public
// Runner and checks the round trip: scenario in, spread metrics out, every
// node informed. opts are the runner options that must select the daemon.
func transportSmoke(t *testing.T, opts ...regcast.RunnerOption) {
	t.Helper()
	const engine = regcast.EngineDaemonTransport
	const n, d, k = 12, 4, 2
	g, err := regcast.NewRegularGraph(n, d, regcast.NewRand(8))
	if err != nil {
		t.Fatal(err)
	}
	proto, err := baseline.NewPushPull(n, k)
	if err != nil {
		t.Fatal(err)
	}
	obs := &recordingObserver{}
	scenario, err := regcast.NewScenario(regcast.Static(g), proto,
		regcast.WithSeed(8),
		regcast.WithObserver(obs))
	if err != nil {
		t.Fatal(err)
	}
	res, err := regcast.Run(context.Background(), scenario, opts...)
	if err != nil {
		t.Fatal(err)
	}
	if res.Engine != engine {
		t.Fatalf("Result.Engine = %v, want %v", res.Engine, engine)
	}
	if !res.AllInformed {
		t.Fatalf("%v: rumour reached only %d/%d nodes in %d ticks", engine, res.Informed, n, res.Rounds)
	}
	if res.Transmissions <= 0 {
		t.Errorf("%v: no packets counted", engine)
	}
	if res.FirstAllInformed < 1 || res.FirstAllInformed > proto.Horizon() {
		t.Errorf("%v: FirstAllInformed = %d out of (0, %d]", engine, res.FirstAllInformed, proto.Horizon())
	}
	// The daemon keeps the ledger, closed and balanced; every tick fell
	// silent before the deadline.
	if h := res.Transport; h == nil || h.LedgerGap() != 0 || h.InFlight() != 0 || h.Sends == 0 {
		t.Errorf("%v: Result.Transport = %+v, want a balanced closed ledger", engine, h)
	}
	if res.TickTimeouts != 0 {
		t.Errorf("%v: %d tick timeouts on a clean run", engine, res.TickTimeouts)
	}
	for v, at := range res.InformedAt {
		if at == regcast.Uninformed {
			t.Errorf("%v: node %d never marked informed", engine, v)
		}
	}
	if len(obs.rounds) != res.Rounds {
		t.Errorf("%v: observer saw %d rounds of %d", engine, len(obs.rounds), res.Rounds)
	}
	if len(obs.informedAt) != n {
		t.Errorf("%v: OnInformed fired for %d/%d nodes", engine, len(obs.informedAt), n)
	}
}

// TestEngineSelectionIgnoresOptionOrder pins that WithWorkers only stores a
// count: a transport engine chosen before it stays chosen (WithWorkers used
// to overwrite the engine with a simulator one), and after it likewise.
func TestEngineSelectionIgnoresOptionOrder(t *testing.T) {
	daemon, workers := regcast.WithEngine(regcast.EngineDaemonTransport), regcast.WithWorkers(2)
	transportSmoke(t, daemon, workers)
	transportSmoke(t, workers, daemon)
}
