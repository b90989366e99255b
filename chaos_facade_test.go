package regcast_test

import (
	"context"
	"flag"
	"slices"
	"strings"
	"testing"
	"time"

	"regcast"
	"regcast/internal/baseline"
)

// TestDaemonTransportRoundTrip proves the facade reaches the resilient
// gossip daemon: persistent per-peer connections, redial backoff, dedup.
func TestDaemonTransportRoundTrip(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: skipping daemon transport smoke test")
	}
	transportSmoke(t, regcast.WithEngine(regcast.EngineDaemonTransport))
}

// TestChaosRunLedger runs a scenario over the daemon with a 20% seeded
// drop plan and checks the public contract: the rumour still reaches
// every node, the health snapshot comes back on Result.Transport, faults
// actually fired, and the ledger balances exactly.
func TestChaosRunLedger(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: skipping chaos run")
	}
	const n, d, k = 12, 4, 2
	g, err := regcast.NewRegularGraph(n, d, regcast.NewRand(8))
	if err != nil {
		t.Fatal(err)
	}
	proto, err := baseline.NewPushPull(n, k)
	if err != nil {
		t.Fatal(err)
	}
	scenario, err := regcast.NewScenario(regcast.Static(g), proto, regcast.WithSeed(8))
	if err != nil {
		t.Fatal(err)
	}
	res, err := regcast.Run(context.Background(), scenario,
		regcast.WithEngine(regcast.EngineDaemonTransport),
		regcast.WithTransportFaults(regcast.FaultConfig{Seed: 21, Drop: 0.2}))
	if err != nil {
		t.Fatal(err)
	}
	if !res.AllInformed {
		t.Fatalf("rumour reached only %d/%d nodes under 20%% drops", res.Informed, n)
	}
	h := res.Transport
	if h == nil {
		t.Fatal("Result.Transport missing for the daemon engine")
	}
	if h.Faults == nil {
		t.Fatal("fault ledger missing from Result.Transport")
	}
	if h.Faults.Dropped == 0 {
		t.Error("drop plan injected zero drops")
	}
	if gap := h.LedgerGap(); gap != 0 {
		t.Errorf("LedgerGap = %d, want 0 (sent = delivered + deduped + dropped)", gap)
	}
	if len(h.Peers) != n {
		t.Errorf("health snapshot has %d peer rows, want %d", len(h.Peers), n)
	}
}

// TestChaosRunReproducibleFromSeed is the facade side of the transport
// test of the same name: two daemon runs of one scenario seed under one
// fault plan (drops, duplicates, reorder holds; no wall-clock delay) return
// the same Result and the same fault ledger.
func TestChaosRunReproducibleFromSeed(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: skipping chaos runs")
	}
	const n = 32
	g, err := regcast.NewRegularGraph(n, 6, regcast.NewRand(4))
	if err != nil {
		t.Fatal(err)
	}
	proto, err := baseline.NewPushPull(n, 2)
	if err != nil {
		t.Fatal(err)
	}
	run := func() regcast.Result {
		scenario, err := regcast.NewScenario(regcast.Static(g), proto, regcast.WithSeed(4))
		if err != nil {
			t.Fatal(err)
		}
		res, err := regcast.Run(context.Background(), scenario, regcast.WithEngine(regcast.EngineDaemonTransport),
			regcast.WithTransportFaults(regcast.FaultConfig{Seed: 12, Drop: 0.2, Duplicate: 0.1, Reorder: 0.2}))
		if err != nil {
			t.Fatal(err)
		}
		if res.TickTimeouts != 0 {
			t.Fatalf("%d tick timeouts", res.TickTimeouts)
		}
		return res
	}
	a, b := run(), run()
	if a.Rounds != b.Rounds || a.Transmissions != b.Transmissions || !slices.Equal(a.InformedAt, b.InformedAt) ||
		*a.Transport.Faults != *b.Transport.Faults {
		t.Errorf("same seed, different chaos runs: rounds %d/%d, transmissions %d/%d, InformedAt\n %v\n %v\nfaults\n %+v\n %+v",
			a.Rounds, b.Rounds, a.Transmissions, b.Transmissions, a.InformedAt, b.InformedAt, *a.Transport.Faults, *b.Transport.Faults)
	}
}

// TestFaultsRejectNonTransportEngines pins the Run-time guard.
func TestFaultsRejectNonTransportEngines(t *testing.T) {
	const n, d = 16, 4
	g, err := regcast.NewRegularGraph(n, d, regcast.NewRand(8))
	if err != nil {
		t.Fatal(err)
	}
	proto, err := baseline.NewPushPull(n, 2)
	if err != nil {
		t.Fatal(err)
	}
	scenario, err := regcast.NewScenario(regcast.Static(g), proto, regcast.WithSeed(8))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := regcast.Run(context.Background(), scenario,
		regcast.WithTransportFaults(regcast.FaultConfig{Drop: 0.1})); err == nil {
		t.Error("sequential engine accepted a fault plan")
	}
}

// TestFaultWindowsRejectOutOfRangeNodes pins that a crash or partition
// window naming a node outside [0, n) fails the run instead of being
// accepted and never firing.
func TestFaultWindowsRejectOutOfRangeNodes(t *testing.T) {
	const n = 8
	g, err := regcast.NewRegularGraph(n, 4, regcast.NewRand(8))
	if err != nil {
		t.Fatal(err)
	}
	proto, err := baseline.NewPushPull(n, 1)
	if err != nil {
		t.Fatal(err)
	}
	scenario, err := regcast.NewScenario(regcast.Static(g), proto, regcast.WithSeed(8))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		cfg  regcast.FaultConfig
	}{
		{"crash node", regcast.FaultConfig{Crashes: []regcast.CrashWindow{{Node: 99, From: 1, Until: 3}}}},
		{"partition member", regcast.FaultConfig{Partitions: []regcast.PartitionWindow{{From: 1, Until: 3, A: []int{0, n}}}}},
	} {
		_, err := regcast.Run(context.Background(), scenario,
			regcast.WithEngine(regcast.EngineDaemonTransport), regcast.WithTransportFaults(tc.cfg))
		if err == nil || !strings.Contains(err.Error(), "out of range") {
			t.Errorf("%s outside [0,%d): Run error = %v, want out of range", tc.name, n, err)
		}
	}
}

func parseTransportFlags(t *testing.T, args ...string) (*regcast.TransportFlags, error) {
	t.Helper()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	f := regcast.AddTransportFlags(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	return f, f.Validate()
}

func TestTransportFlags(t *testing.T) {
	f, err := parseTransportFlags(t,
		"-chaos", "-chaos-drop", "0.3", "-chaos-delay-prob", "0.1", "-chaos-delay", "3ms",
		"-chaos-partition", "1:4", "-chaos-crash", "2:1:5")
	if err != nil {
		t.Fatal(err)
	}
	if !f.Daemon {
		t.Error("-chaos did not imply -daemon")
	}
	cfg := f.FaultConfig(8, 11)
	if cfg == nil {
		t.Fatal("FaultConfig nil with -chaos on")
	}
	if cfg.Seed != 11 {
		t.Errorf("Seed = %d, want run seed 11 when -chaos-seed is 0", cfg.Seed)
	}
	if cfg.Drop != 0.3 || cfg.DelayProb != 0.1 || cfg.Delay != 3*time.Millisecond {
		t.Errorf("probabilities not threaded: %+v", cfg)
	}
	if len(cfg.Partitions) != 1 || cfg.Partitions[0].From != 1 || cfg.Partitions[0].Until != 4 ||
		len(cfg.Partitions[0].A) != 4 {
		t.Errorf("partition window wrong: %+v", cfg.Partitions)
	}
	if len(cfg.Crashes) != 1 || cfg.Crashes[0] != (regcast.CrashWindow{Node: 2, From: 1, Until: 5}) {
		t.Errorf("crash window wrong: %+v", cfg.Crashes)
	}
	if opts := f.RunnerOptions(8, 11); len(opts) == 0 {
		t.Error("RunnerOptions empty with -chaos on")
	}

	// Plain -daemon: engine selection, no fault plan.
	f, err = parseTransportFlags(t, "-daemon")
	if err != nil {
		t.Fatal(err)
	}
	if cfg := f.FaultConfig(8, 1); cfg != nil {
		t.Error("FaultConfig non-nil without -chaos")
	}
	if opts := f.RunnerOptions(8, 1); len(opts) != 1 {
		t.Errorf("RunnerOptions = %d options for plain -daemon, want 1", len(opts))
	}

	// Off: no options at all.
	f, err = parseTransportFlags(t)
	if err != nil {
		t.Fatal(err)
	}
	if opts := f.RunnerOptions(8, 1); len(opts) != 0 {
		t.Error("RunnerOptions non-empty with transport flags off")
	}
}

func TestTransportFlagsValidation(t *testing.T) {
	bad := [][]string{
		{"-chaos", "-chaos-drop", "1.5"},
		{"-chaos", "-chaos-reorder", "NaN"},
		{"-chaos", "-chaos-dup", "-0.1"},
		{"-chaos", "-chaos-delay", "-1ms"},
		{"-mailbox", "-3"},
		{"-chaos", "-chaos-partition", "nope"},
		{"-chaos", "-chaos-partition", "5:2"},
		{"-chaos", "-chaos-crash", "1:2"},
		{"-chaos", "-chaos-crash", "x:1:2"},
	}
	for _, args := range bad {
		if _, err := parseTransportFlags(t, args...); err == nil {
			t.Errorf("flags %v validated", args)
		}
	}
	// With two bad probabilities the error names the first (-chaos-drop's
	// field, the fault plan's check words it), every time.
	for i := 0; i < 20; i++ {
		_, err := parseTransportFlags(t, "-chaos", "-chaos-drop", "2", "-chaos-reorder", "NaN")
		if err == nil || !strings.HasPrefix(err.Error(), "transport: FaultConfig.Drop ") {
			t.Fatalf("run %d: error %v, want it to name FaultConfig.Drop", i, err)
		}
	}
}
