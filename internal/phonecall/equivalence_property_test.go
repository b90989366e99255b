package phonecall_test

import (
	"fmt"
	"strings"
	"testing"
	"testing/quick"

	"regcast/internal/graph"
	"regcast/internal/phonecall"
	"regcast/internal/xrand"
)

// windowProto is a generated schedule: round t pushes (pulls) when its
// bit of the push (pull) mask is set, and then only from nodes informed
// within the last window rounds (0 = from every informed node). A small
// window leaves most cohorts silent, so most shards hold no sender and
// the driver's cohort skip fires.
type windowProto struct {
	k, horizon, window int
	push, pull         uint32
}

func (p windowProto) Name() string { return "window" }
func (p windowProto) Choices() int { return p.k }
func (p windowProto) Horizon() int { return p.horizon }
func (p windowProto) recent(t, ia int) bool {
	return p.window == 0 || t-ia <= p.window
}
func (p windowProto) SendPush(t, ia int) bool {
	return (p.push>>(uint(t)%32)&1 == 1 || t%5 == 1) && p.recent(t, ia)
}
func (p windowProto) SendPull(t, ia int) bool {
	return p.pull>>(uint(t)%32)&1 == 1 && p.recent(t, ia)
}

// TestWorkersAndPathEquivalenceProperty is the generated-input form of
// the golden matrices: for a random schedule, choice count, fault rates,
// dial discipline, topology kind (frozen CSR graph, partially-alive CSR
// view, churning overlay, implicit family — the static ones with and
// without the edge census) and shard count, every run of the
// configuration — the topology's own view or interfaceView, shard passes
// inline (Workers 0 and 1) or pooled (4) — must produce the same Result bit for bit. Half of
// the cases on a frozen topology without census, the ones that can settle,
// are also run declared changeable (mayChange): a counted tail must read as
// the simulated one does, whatever the generated schedule pulls when. The
// symmetric static kinds without census are also held to their census run,
// which takes neither the word kernel nor its fresh-cohort rounds (a walk of
// last round's receipts only, which a fault-free window-1 schedule's push
// rounds take). Generated inputs reach those rarely, so a directed case
// runs first: a window-1 schedule that pushes every round and never pulls,
// on the static graph, which must take one.
func TestWorkersAndPathEquivalenceProperty(t *testing.T) {
	const n, d = 96, 6
	g := mustRegular(t, n, d, 50)
	static := phonecall.NewStatic(g)
	view := phonecall.NewViewTopo(g, 70, 81, 95) // the source is drawn below 64
	cube, err := graph.NewImplicitHypercube(6)
	if err != nil {
		t.Fatal(err)
	}
	stream, err := graph.NewRegularStream(n, d, 51)
	if err != nil {
		t.Fatal(err)
	}

	freshCases := 0
	prop := func(seed uint64, push, pull uint32, raw [8]uint8) bool {
		proto := windowProto{
			k:       int(raw[0])%4 + 1,
			horizon: 24,
			window:  int(raw[1]) % 4,
			push:    push,
			pull:    pull,
		}
		if raw[2]%3 == 0 {
			proto.pull = 0 // a third of the cases never dial everywhere
		}
		base := phonecall.Config{
			Protocol:           proto,
			ChannelFailureProb: float64(raw[3]%3) * 0.2,
			MessageLossProb:    float64(raw[4]%3) * 0.15,
		}
		base.SetShards([]int{1, 7, 64}[raw[5]%3])
		// A quasirandom run of a schedule that pulls, and dial memory beside
		// more than one dial per round, are outside the model: NewEngine
		// must reject them.
		outside := false
		switch raw[6] % 4 {
		case 1:
			base.DialStrategy = phonecall.DialQuasirandom
			for t := 1; t <= proto.horizon; t++ {
				outside = outside || proto.SendPull(t, t-1)
			}
		case 2:
			base.Protocol = phonecall.WithMemory(proto, 2)
			outside = proto.k != 1
		}
		// Fresh topology per run: the overlay mutates under churn, and its
		// churner draws only from its own streams, so every run sees the
		// same membership trajectory.
		var topo func() phonecall.Topology
		kinds := []string{"static", "static-census", "view-census", "overlay", "hypercube", "hypercube-census", "regular-stream"}
		kind := kinds[int(raw[7])%len(kinds)]
		base.TrackEdgeUse = strings.HasSuffix(kind, "-census")
		switch kind {
		case "static", "static-census":
			topo = func() phonecall.Topology { return static }
		case "view-census":
			topo = func() phonecall.Topology { return view }
		case "overlay":
			// Departed ids are recycled last-out-first-in, so at 4 % each way
			// a joiner routinely takes the id of a peer that left informed in
			// the same step — the popcount recount's rejoin case, pinned
			// against an oracle in TestChurnRecountMatchesOracle.
			churn := churnGolden{joinProb: 0.04, leaveProb: 0.04, mixSteps: 3}
			topo = func() phonecall.Topology { return buildChurnTopo(t, n, d, churn, seed) }
		case "hypercube", "hypercube-census":
			topo = func() phonecall.Topology { return phonecall.NewImplicit(cube) }
		case "regular-stream":
			topo = func() phonecall.Topology { return phonecall.NewImplicit(stream) }
		}
		label := fmt.Sprintf("seed=%d push=%#x pull=%#x raw=%v (%s)", seed, push, pull, raw, kind)
		if outside {
			cfg := base
			cfg.Topology, cfg.Source, cfg.RNG = topo(), int(seed%64), xrand.New(seed)
			if _, err := phonecall.NewEngine(cfg); err == nil {
				t.Fatalf("%s: NewEngine accepted a configuration outside the model", label)
			}
			return true
		}

		var first phonecall.Result
		var firstRounds phonecall.RoundLog
		for i, variant := range []struct {
			reference bool
			workers   int
		}{{false, 0}, {false, 1}, {false, 4}, {true, 0}, {true, 1}, {true, 4}} {
			cfg := base
			cfg.Topology = topo()
			cfg.Source = int(seed % 64) // a live id on every kind (the overlay's spare slots start dead)
			cfg.RNG = xrand.New(seed)
			cfg.DisableFastPath = variant.reference
			cfg.Workers = variant.workers
			res, rounds, err := phonecall.RunRounds(cfg)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			if i == 0 {
				first, firstRounds = res, rounds
				continue
			}
			variantLabel := fmt.Sprintf("%s reference=%v workers=%d", label, variant.reference, variant.workers)
			sameResult(t, variantLabel, first, res)
			sameRounds(t, variantLabel, firstRounds, rounds)
		}
		settles := kind == "static" || kind == "hypercube" || kind == "regular-stream"
		if settles {
			cfg := base
			cfg.Topology, cfg.Source, cfg.RNG = topo(), int(seed%64), xrand.New(seed)
			var rounds phonecall.RoundLog
			cfg.Observer = &rounds
			res, counts, err := phonecall.RunCounted(cfg)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			if counts.Fresh > 0 {
				freshCases++
			}
			cfg.TrackEdgeUse, cfg.RNG, cfg.Observer = true, xrand.New(seed), nil
			oracle, oracleRounds, err := phonecall.RunRounds(cfg)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			for i := range oracleRounds {
				oracleRounds[i].UnusedEdgeNodes = 0
			}
			sameResult(t, label+" against the census oracle", oracle, res)
			sameRounds(t, label+" against the census oracle", oracleRounds, rounds)
		}
		if settles && seed%2 == 0 {
			cfg := base
			cfg.Topology, cfg.Source, cfg.RNG = mayChange(topo()), int(seed%64), xrand.New(seed)
			oracle, oracleRounds, err := phonecall.RunRounds(cfg)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			sameResult(t, label+" against the may-change oracle", oracle, first)
			sameRounds(t, label+" against the may-change oracle", oracleRounds, firstRounds)
		}
		return true
	}
	prop(1, ^uint32(0), 0, [8]uint8{3, 1, 0, 0, 0, 1, 0, 0})
	if freshCases == 0 {
		t.Error("the directed window-1 case took no fresh-cohort round")
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}
