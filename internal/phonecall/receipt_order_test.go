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
// round shows even though InformedAt would not. It also counts the calls
// whose node does not exceed the one before it in the same round.
type receiptHash struct {
	h                   uint64
	calls, unordered    int
	lastNode, lastRound int
}

func newReceiptHash() *receiptHash {
	return &receiptHash{h: 14695981039346656037, lastNode: -1, lastRound: -1}
}

func (r *receiptHash) OnRound(phonecall.RoundMetrics) {}

func (r *receiptHash) OnInformed(node, round int) {
	r.calls++
	if round == r.lastRound && node <= r.lastNode {
		r.unordered++
	}
	r.lastNode, r.lastRound = node, round
	for _, x := range [2]uint32{uint32(node), uint32(round)} {
		for s := 0; s < 32; s += 8 {
			r.h = (r.h ^ uint64(byte(x>>s))) * 1099511628211
		}
	}
}

// TestReceiptOrderUnchanged pins the order in which a round applies its
// receipts: a round's receipts are a set, applied in ascending node id
// whichever pass delivered them and however the passes were scheduled.
// Every OnInformed id must exceed the one before it in the same round, and
// the whole sequence must hash to the golden, on both paths and for every
// worker count. The goldens were re-recorded once, when the shards' receipt
// queues (applied shard by shard, first hit winning) gave way to receipt
// bitsets; the receipt counts did not move.
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
		{"lossy-fourchoice", 0x5b3e86afda0510fd, 2048, func() phonecall.Config {
			return phonecall.Config{
				Topology:           phonecall.NewStatic(g),
				Protocol:           fourChoice,
				Source:             11,
				MessageLossProb:    0.25,
				ChannelFailureProb: 0.1,
			}
		}},
		{"churn", 0x33e257cd698d9400, 3461, func() phonecall.Config {
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
			for _, workers := range []int{0, 1, 2, 4} {
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
				if obs.unordered != 0 {
					t.Errorf("%s: %d OnInformed ids not above the previous id of their round", label, obs.unordered)
				}
			}
		}
	}
}
