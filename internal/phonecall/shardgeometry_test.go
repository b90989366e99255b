package phonecall_test

import (
	"fmt"
	"testing"

	"regcast/internal/baseline"
	"regcast/internal/core"
	"regcast/internal/graph"
	"regcast/internal/phonecall"
	"regcast/internal/xrand"
)

// geometryGoldens are the committed digests of TestShardedShardGeometry,
// keyed topology/protocol/shards. They were recorded while the shard pass
// still visited every id of its range one by one, so they pin the word
// walk to that scan.
var geometryGoldens = map[string]digest{
	"static/push/1":           {30, 18317, 30000, 19, 0xc0adfbce2a666a4e},
	"static/push/7":           {30, 18933, 30000, 19, 0x7d972ba9fda43c28},
	"static/push/64":          {30, 18408, 30000, 21, 0x8a02cb4e651a7469},
	"static/push/250":         {30, 18200, 30000, 20, 0xf816e752ddc859bb},
	"static/push/1024":        {30, 18287, 30000, 21, 0xdba1dedbc68f33e8},
	"static/four-choice/1":    {42, 15952, 168000, 21, 0x95d9e3ea43aa6e09},
	"static/four-choice/7":    {42, 15968, 168000, 21, 0xfe27124fba65a53b},
	"static/four-choice/64":   {42, 15960, 168000, 21, 0xd2780b898c1fda6d},
	"static/four-choice/250":  {42, 15976, 168000, 21, 0x31e22669db53e5eb},
	"static/four-choice/1024": {42, 15992, 168000, 21, 0x96902e9c95e43a38},
	"churn/push/1":            {30, 8557, 14423, -1, 0xb25a4c919103ede6},
	"churn/push/7":            {30, 8693, 14423, -1, 0xa108740e1d482e63},
	"churn/push/64":           {30, 8464, 14423, -1, 0xa35cf404e0784a5d},
	"churn/push/250":          {30, 8658, 14423, -1, 0x710603857afb3548},
	"churn/push/1024":         {30, 8736, 14423, -1, 0xde3fbb0cbe0cf345},
	"churn/four-choice/1":     {42, 12562, 80216, -1, 0x5dbb754fefa7b084},
	"churn/four-choice/7":     {42, 12360, 80216, -1, 0x9b6f2d4c76ab3a0e},
	"churn/four-choice/64":    {42, 12333, 80216, -1, 0x4b7031d9ea5bceff},
	"churn/four-choice/250":   {42, 12470, 80216, -1, 0xde53a314dcd534cd},
	"churn/four-choice/1024":  {42, 12900, 80216, -1, 0xaa91442475368c6},
	"stream/push/1":           {30, 18657, 30000, 20, 0xda8e403096525806},
	"stream/push/7":           {30, 18719, 30000, 20, 0xefa1b824aa2a83a8},
	"stream/push/64":          {30, 18486, 30000, 18, 0xc691818229e7ca57},
	"stream/push/250":         {30, 18518, 30000, 20, 0xe9091e3117aa8db7},
	"stream/push/1024":        {30, 18759, 30000, 19, 0x7f2066c81b2cfe10},
	"stream/four-choice/1":    {42, 15968, 168000, 21, 0x63b093426450d193},
	"stream/four-choice/7":    {42, 15968, 168000, 21, 0x16dc9092540f9604},
	"stream/four-choice/64":   {42, 15968, 168000, 21, 0x319fef2191868a0b},
	"stream/four-choice/250":  {42, 15968, 168000, 21, 0x3467787cb7311687},
	"stream/four-choice/1024": {42, 15968, 168000, 21, 0xf755fe881fad6a0f},
}

// TestShardedShardGeometry pins the shard pass at geometries whose shard
// bounds straddle bitset words: n = 1000 ids (not a multiple of 64) split
// into 1, 7, 64 and 250 shards (four ids each, inside one word) and 1024
// (more shards than ids, so some are empty), on a static CSR graph, an
// E13b-style churning overlay (half its ids dead at the start, departed
// informed ids rejoining) and the implicit regular-stream family, for push
// (k = 1) and four-choice, with the passes inline and pooled. Every run
// must reproduce its committed digest.
func TestShardedShardGeometry(t *testing.T) {
	const n, d = 1000, 8
	g := mustRegular(t, n, d, 41)
	stream, err := graph.NewRegularStream(n, d, 42)
	if err != nil {
		t.Fatal(err)
	}
	topos := []struct {
		name  string
		build func() phonecall.Topology
	}{
		{"static", func() phonecall.Topology { return phonecall.NewStatic(g) }},
		{"churn", func() phonecall.Topology {
			return buildChurnTopo(t, n/2, d, churnGolden{joinProb: 0.03, leaveProb: 0.03, mixSteps: 3}, 43)
		}},
		{"stream", func() phonecall.Topology { return phonecall.NewImplicit(stream) }},
	}
	push, err := baseline.NewPush(n, 1)
	if err != nil {
		t.Fatal(err)
	}
	fourChoice, err := core.New(n, d)
	if err != nil {
		t.Fatal(err)
	}
	protos := []struct {
		name  string
		proto phonecall.Protocol
	}{{"push", push}, {"four-choice", fourChoice}}

	for _, topo := range topos {
		for _, p := range protos {
			for _, shards := range []int{1, 7, 64, 250, 1024} {
				key := fmt.Sprintf("%s/%s/%d", topo.name, p.name, shards)
				want, ok := geometryGoldens[key]
				for _, workers := range []int{0, 4} {
					cfg := phonecall.Config{
						Topology: topo.build(),
						Protocol: p.proto,
						Source:   5,
						RNG:      xrand.New(20261016),
						Workers:  workers,
					}
					cfg.SetShards(shards)
					res, rounds, err := phonecall.RunRounds(cfg)
					if err != nil {
						t.Fatal(err)
					}
					got := digestOf(res, rounds)
					switch {
					case !ok:
						t.Errorf("%q: no committed digest; this run reads %#v", key, got)
					case got != want:
						t.Errorf("%s workers=%d: digest %+v, want %+v", key, workers, got, want)
					}
				}
			}
		}
	}
}

// TestShardWalkMatchesIdScan holds the shard pass's word walk to the
// id-by-id scan it replaced. On random receipt rounds, alive bitsets
// (random, and nil for a fully-alive view) and push decisions, over shard
// bounds that start and end mid-word, span many words, sit inside one word
// or are empty, the walk must visit exactly the ids the scan considered —
// the informed, alive ones in a dialSenders round, every alive one
// otherwise — in ascending order and once each, and treat an id as a
// sender exactly when the scan's predicate did. pushAll is on only where
// every receipt round pushes, which is when round sets it.
func TestShardWalkMatchesIdScan(t *testing.T) {
	const n, horizon = 1000, 12
	rng := xrand.New(28)
	for trial := 0; trial < 600; trial++ {
		round := 1 + rng.IntN(horizon)
		informedAt := make([]int32, n)
		for v := range informedAt {
			informedAt[v] = phonecall.Uninformed
			if rng.IntN(3) > 0 {
				informedAt[v] = int32(rng.IntN(round))
			}
		}
		var alive []uint64
		if trial%4 != 0 {
			alive = make([]uint64, (n+63)/64)
			for i := range alive {
				alive[i] = rng.Uint64()
			}
		}
		pushAll := trial%2 == 0
		pushDec := make([]bool, horizon+1)
		for r := range pushDec {
			pushDec[r] = pushAll || rng.IntN(2) == 0
		}
		lo := rng.IntN(n + 1)
		hi := lo + rng.IntN(n+1-lo)
		switch trial % 6 {
		case 0:
			hi = lo
		case 1:
			hi = min(n, lo+rng.IntN(64))
		}
		for _, senders := range []bool{true, false} {
			visited, pushing := phonecall.ShardWalk(informedAt, alive, pushDec, lo, hi, round, senders, pushAll)
			var want []int
			var wantPush []bool
			for v := lo; v < hi; v++ {
				ia := informedAt[v]
				isAlive := alive == nil || alive[v>>6]>>(uint(v)&63)&1 == 1
				if !isAlive || senders && ia == phonecall.Uninformed {
					continue
				}
				want = append(want, v)
				wantPush = append(wantPush, ia != phonecall.Uninformed && int(ia) < round && pushDec[ia])
			}
			label := fmt.Sprintf("trial %d [%d, %d) round %d senders=%v pushAll=%v fully-alive=%v",
				trial, lo, hi, round, senders, pushAll, alive == nil)
			if len(visited) != len(want) {
				t.Fatalf("%s: walk visits %d ids, the scan %d", label, len(visited), len(want))
			}
			for i, v := range visited {
				if v != want[i] || pushing[i] != wantPush[i] {
					t.Fatalf("%s: visit %d is id %d (sender %v), the scan's is %d (sender %v)",
						label, i, v, pushing[i], want[i], wantPush[i])
				}
			}
		}
	}
}
