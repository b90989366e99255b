package regcast

import (
	"context"
	"errors"
	"testing"
	"time"

	"regcast/internal/baseline"
)

// TestTickTimeoutCountsSettleDeadline pins the tick deadline's accounting:
// a fault plan whose Delay outlasts the deadline leaves the first tick
// with packets in flight, Cluster.Settle reports the timeout, and the
// Runner counts it in Result.TickTimeouts. The run is cancelled after that
// tick; the closed ledger still balances.
func TestTickTimeoutCountsSettleDeadline(t *testing.T) {
	defer func(d time.Duration) { tickDeadline = d }(tickDeadline)
	tickDeadline = 10 * time.Millisecond
	g, err := NewRegularGraph(8, 4, NewRand(3))
	if err != nil {
		t.Fatal(err)
	}
	proto, err := baseline.NewPushPull(8, 1)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sc, err := NewScenario(Static(g), proto, WithSeed(3),
		WithObserver(ObserverFuncs{Round: func(RoundStats) { cancel() }}))
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(ctx, sc, WithEngine(EngineDaemonTransport),
		WithTransportFaults(FaultConfig{Seed: 1, DelayProb: 1, Delay: 100 * time.Millisecond}))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Run error = %v, want context.Canceled after the first tick", err)
	}
	if res.Rounds != 1 || res.TickTimeouts != 1 {
		t.Errorf("rounds/tick timeouts = %d/%d, want 1/1 (every packet outlasts the deadline)", res.Rounds, res.TickTimeouts)
	}
	if h := res.Transport; h == nil || h.LedgerGap() != 0 || h.Faults.Delayed == 0 {
		t.Errorf("closed ledger = %+v, want delayed packets and LedgerGap 0", h)
	}
}
