package phonecall_test

import (
	"fmt"
	"testing"

	"regcast/internal/core"
	"regcast/internal/phonecall"
	"regcast/internal/xrand"
)

// receiptHash folds the OnInformed sequence — node and round, in call
// order — into one FNV-1a value, so a reordering of receipts inside a
// round shows even though InformedAt would not.
type receiptHash struct {
	h     uint64
	calls int
}

func newReceiptHash() *receiptHash { return &receiptHash{h: 14695981039346656037} }

func (r *receiptHash) OnRound(phonecall.RoundMetrics) {}

func (r *receiptHash) OnInformed(node, round int) {
	r.calls++
	for _, x := range [2]uint32{uint32(node), uint32(round)} {
		for s := 0; s < 32; s += 8 {
			r.h = (r.h ^ uint64(byte(x>>s))) * 1099511628211
		}
	}
}

// TestReceiptOrderUnchanged pins the order in which a round applies its
// receipts: shard by shard, and inside a shard in outbox order, first hit
// wins. The goldens were recorded on the commit that still queued the
// winners in a global pending list and applied them in a second pass; the
// merge that applies them directly must visit the same nodes in the same
// order, on both paths and for every worker count.
func TestReceiptOrderUnchanged(t *testing.T) {
	const n, d = 2048, 8
	fourChoice, err := core.New(n, d)
	if err != nil {
		t.Fatal(err)
	}
	g := mustRegular(t, n, d, 1723)
	cases := []struct {
		name   string
		golden uint64
		calls  int
		cfg    func() phonecall.Config
	}{
		{"lossy-fourchoice", 0x77b44bb674bfc4c5, 2048, func() phonecall.Config {
			return phonecall.Config{
				Topology:           phonecall.NewStatic(g),
				Protocol:           fourChoice,
				Source:             11,
				MessageLossProb:    0.25,
				ChannelFailureProb: 0.1,
			}
		}},
		{"churn", 0x2e673b09f75a85d0, 3461, func() phonecall.Config {
			cell := churnGolden{joinProb: 0.02, leaveProb: 0.02, mixSteps: 3}
			return phonecall.Config{
				Topology: buildChurnTopo(t, n, d, cell, 1724),
				Protocol: fourChoice,
				Source:   11,
			}
		}},
	}
	for _, tc := range cases {
		for _, reference := range []bool{false, true} {
			for _, workers := range []int{0, 1, 4} {
				obs := newReceiptHash()
				cfg := tc.cfg()
				cfg.RNG = xrand.New(20261002)
				cfg.Observer = obs
				cfg.Workers = workers
				cfg.DisableFastPath = reference
				if _, err := phonecall.Run(cfg); err != nil {
					t.Fatal(err)
				}
				label := fmt.Sprintf("%s reference=%v workers=%d", tc.name, reference, workers)
				if obs.h != tc.golden || obs.calls != tc.calls {
					t.Errorf("%s: %d receipts hashing to %#x, golden %d / %#x", label, obs.calls, obs.h, tc.calls, tc.golden)
				}
			}
		}
	}
}
