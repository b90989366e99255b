package regcast_test

import (
	"context"
	"slices"
	"testing"

	"regcast"
	"regcast/internal/baseline"
	"regcast/internal/core"
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

// daemonRun runs proto on g over the daemon engine from seed, failing the
// test on an error or a tick that did not settle.
func daemonRun(t *testing.T, g *regcast.Graph, proto regcast.Protocol, seed uint64, opts ...regcast.ScenarioOption) regcast.Result {
	t.Helper()
	sc, err := regcast.NewScenario(regcast.Static(g), proto, append([]regcast.ScenarioOption{regcast.WithSeed(seed)}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	res, err := regcast.Run(context.Background(), sc, regcast.WithEngine(regcast.EngineDaemonTransport))
	if err != nil {
		t.Fatal(err)
	}
	if res.TickTimeouts != 0 {
		t.Fatalf("%d tick timeouts on a chaos-free run", res.TickTimeouts)
	}
	return res
}

// TestDaemonStopEarly pins that the daemon ticks the protocol's whole
// horizon, as the simulator charges it, and ends at the first all-informed
// tick only under WithStopEarly.
func TestDaemonStopEarly(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: skipping daemon runs")
	}
	const n = 12
	g, err := regcast.NewRegularGraph(n, 4, regcast.NewRand(8))
	if err != nil {
		t.Fatal(err)
	}
	proto, err := baseline.NewPushPull(n, 2)
	if err != nil {
		t.Fatal(err)
	}
	full := daemonRun(t, g, proto, 8)
	if !full.AllInformed || full.Rounds != proto.Horizon() {
		t.Errorf("without stop-early: all informed %v after %d of %d ticks, want the whole horizon", full.AllInformed, full.Rounds, proto.Horizon())
	}
	early := daemonRun(t, g, proto, 8, regcast.WithStopEarly())
	if !early.AllInformed || early.Rounds != early.FirstAllInformed {
		t.Errorf("with stop-early: %d ticks, all informed after %d", early.Rounds, early.FirstAllInformed)
	}
}

// TestDaemonReproducibleFromSeed pins that a chaos-free daemon run whose
// every tick settles is a function of its seed: the decisions read each
// node's receipt tick, never the arrival order within a tick.
func TestDaemonReproducibleFromSeed(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: skipping daemon runs")
	}
	const n = 64
	g, err := regcast.NewRegularGraph(n, 6, regcast.NewRand(5))
	if err != nil {
		t.Fatal(err)
	}
	proto, err := core.New(n, 6)
	if err != nil {
		t.Fatal(err)
	}
	a, b := daemonRun(t, g, proto, 5), daemonRun(t, g, proto, 5)
	if a.Rounds != b.Rounds || a.Transmissions != b.Transmissions || !slices.Equal(a.InformedAt, b.InformedAt) {
		t.Errorf("same seed, different runs: rounds %d/%d, transmissions %d/%d, InformedAt\n %v\n %v",
			a.Rounds, b.Rounds, a.Transmissions, b.Transmissions, a.InformedAt, b.InformedAt)
	}
}
