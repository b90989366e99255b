package replica

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"regcast/internal/core"
	"regcast/internal/graph"
	"regcast/internal/phonecall"
	"regcast/internal/xrand"
)

func TestVersionOrdering(t *testing.T) {
	a := Version{Seq: 1, Origin: 0}
	b := Version{Seq: 2, Origin: 0}
	c := Version{Seq: 1, Origin: 5}
	if !a.Less(b) || b.Less(a) {
		t.Error("seq ordering broken")
	}
	if !a.Less(c) || c.Less(a) {
		t.Error("origin tiebreak broken")
	}
	if a.Less(a) {
		t.Error("irreflexivity broken")
	}
}

func TestStoreApplyLWW(t *testing.T) {
	var s Store
	if changed := s.Apply("k", "v1", Version{Seq: 1}); !changed {
		t.Error("first write did not change store")
	}
	if changed := s.Apply("k", "v0", Version{Seq: 0}); changed {
		t.Error("stale write accepted")
	}
	if changed := s.Apply("k", "v1dup", Version{Seq: 1}); changed {
		t.Error("equal-version write accepted")
	}
	if changed := s.Apply("k", "v2", Version{Seq: 2}); !changed {
		t.Error("newer write rejected")
	}
	got, ok := s.Get("k")
	if !ok || got != "v2" {
		t.Errorf("Get = %q, %v", got, ok)
	}
	if s.Len() != 1 {
		t.Errorf("Len = %d", s.Len())
	}
}

func TestStoreGetMissing(t *testing.T) {
	var s Store
	if _, ok := s.Get("nope"); ok {
		t.Error("missing key found")
	}
	if s.Fingerprint() != "" {
		t.Error("empty store has nonempty fingerprint")
	}
}

func TestStoreApplyCommutesProperty(t *testing.T) {
	// LWW merge must be order-insensitive: applying writes in any order
	// yields the same fingerprint.
	prop := func(seqs []uint16) bool {
		if len(seqs) == 0 || len(seqs) > 12 {
			return true
		}
		type w struct {
			key string
			val string
			v   Version
		}
		var ws []w
		for i, s := range seqs {
			ws = append(ws, w{
				key: fmt.Sprintf("k%d", int(s)%3),
				val: fmt.Sprintf("v%d", i),
				v:   Version{Seq: uint64(s), Origin: i},
			})
		}
		var fwd, rev Store
		for _, x := range ws {
			fwd.Apply(x.key, x.val, x.v)
		}
		for i := len(ws) - 1; i >= 0; i-- {
			rev.Apply(ws[i].key, ws[i].val, ws[i].v)
		}
		return fwd.Fingerprint() == rev.Fingerprint()
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestFingerprintDetectsDivergence(t *testing.T) {
	var a, b Store
	a.Apply("k", "x", Version{Seq: 1})
	b.Apply("k", "y", Version{Seq: 2})
	if a.Fingerprint() == b.Fingerprint() {
		t.Error("different stores share fingerprint")
	}
}

func clusterTopology(t *testing.T, n, d int, seed uint64) phonecall.Topology {
	t.Helper()
	g, err := graph.RandomRegular(n, d, xrand.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	return phonecall.NewStatic(g)
}

func TestRunValidation(t *testing.T) {
	topo := clusterTopology(t, 64, 6, 1)
	proto, err := core.NewAlgorithm1(64)
	if err != nil {
		t.Fatal(err)
	}
	rng := xrand.New(2)
	if _, err := Run(Config{Topology: topo, Protocol: proto, RNG: rng}, nil); err == nil {
		t.Error("empty writes accepted")
	}
	if _, err := Run(Config{Protocol: proto, RNG: rng}, []Write{{Key: "k"}}); err == nil {
		t.Error("nil topology accepted")
	}
	if _, err := Run(Config{Topology: topo, Protocol: proto, RNG: rng}, []Write{{Key: "k", Round: -1}}); err == nil {
		t.Error("negative write round accepted")
	}
	if _, err := Run(Config{Topology: topo, Protocol: proto}, []Write{{Key: "k"}}); err == nil {
		t.Error("nil RNG accepted")
	}
	// The multi-message engine applies the single-message engine's checks.
	if _, err := Run(Config{Topology: topo, Protocol: proto, RNG: rng, MessageLossProb: -0.1}, []Write{{Key: "k"}}); err == nil {
		t.Error("MessageLossProb -0.1 accepted")
	}
	if _, err := Run(Config{Topology: topo, Protocol: proto, RNG: rng}, []Write{{Key: "k", Origin: 64}}); err == nil {
		t.Error("out-of-range origin accepted")
	}
	_, err = Run(Config{Topology: deadOrigin{topo}, Protocol: proto, RNG: rng}, []Write{{Key: "k", Origin: 0}})
	if err == nil || !strings.Contains(err.Error(), "origin 0 is not alive") {
		t.Errorf("dead origin: err = %v", err)
	}
}

// deadOrigin is a topology whose node 0 has departed.
type deadOrigin struct{ phonecall.Topology }

func (d deadOrigin) Alive(v int) bool { return v != 0 }

// TestRunRejectsMoreWritesThanVersionsOrder: a Version packs the write
// index into its low 20 bits, so one write more would let the index bleed
// into the round bits. The writes are zero values: the bound must be
// checked before anything is built per write.
func TestRunRejectsMoreWritesThanVersionsOrder(t *testing.T) {
	topo := clusterTopology(t, 16, 4, 1)
	proto, err := core.NewAlgorithm1(16)
	if err != nil {
		t.Fatal(err)
	}
	_, err = Run(Config{Topology: topo, Protocol: proto, RNG: xrand.New(1)}, make([]Write, 1<<20+1))
	if err == nil || !strings.Contains(err.Error(), "1048576") {
		t.Errorf("2^20+1 writes: err = %v", err)
	}
}

func TestRunIsDeterministic(t *testing.T) {
	topo := clusterTopology(t, 128, 6, 12)
	proto, err := core.NewAlgorithm1(128)
	if err != nil {
		t.Fatal(err)
	}
	writes := []Write{
		{Key: "x", Value: "1", Origin: 3},
		{Key: "y", Value: "2", Origin: 90, Round: 2},
		{Key: "x", Value: "3", Origin: 41, Round: 5},
	}
	run := func() Report {
		rep, err := Run(Config{
			Topology: topo, Protocol: proto, RNG: xrand.New(13),
			MessageLossProb: 0.2,
		}, writes)
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	if a, b := run(), run(); !reflect.DeepEqual(a, b) {
		t.Error("two runs from the same seed returned different reports")
	}
}

func TestSingleWriteConverges(t *testing.T) {
	topo := clusterTopology(t, 128, 6, 3)
	proto, err := core.NewAlgorithm1(128)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Run(Config{Topology: topo, Protocol: proto, RNG: xrand.New(4)},
		[]Write{{Key: "x", Value: "1", Origin: 7, Round: 0}})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Converged {
		t.Fatalf("single write did not converge: %+v", rep.UpdateResults)
	}
	if !StoresConverged(topo, rep.Stores) {
		t.Error("stores diverged despite full dissemination")
	}
	if got, ok := rep.Stores[0].Get("x"); !ok || got != "1" {
		t.Errorf("replica 0 has x=%q,%v", got, ok)
	}
	if rep.ConvergedAtRound < 1 {
		t.Errorf("ConvergedAtRound = %d", rep.ConvergedAtRound)
	}
}

func TestConcurrentWritesSameKeyConvergeToOneWinner(t *testing.T) {
	topo := clusterTopology(t, 128, 6, 5)
	proto, err := core.NewAlgorithm1(128)
	if err != nil {
		t.Fatal(err)
	}
	writes := []Write{
		{Key: "x", Value: "from-3", Origin: 3, Round: 0},
		{Key: "x", Value: "from-9", Origin: 9, Round: 0},
		{Key: "x", Value: "late", Origin: 20, Round: 5},
	}
	rep, err := Run(Config{Topology: topo, Protocol: proto, RNG: xrand.New(6)}, writes)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Converged {
		t.Fatal("cluster did not converge")
	}
	if !StoresConverged(topo, rep.Stores) {
		t.Fatal("stores diverged")
	}
	// The round-5 write has the highest version, so it must win everywhere.
	if got, _ := rep.Stores[17].Get("x"); got != "late" {
		t.Errorf("winner = %q, want \"late\"", got)
	}
}

func TestStaggeredWorkloadConverges(t *testing.T) {
	topo := clusterTopology(t, 128, 6, 7)
	proto, err := core.NewAlgorithm1(128)
	if err != nil {
		t.Fatal(err)
	}
	rng := xrand.New(8)
	var writes []Write
	for i := 0; i < 12; i++ {
		writes = append(writes, Write{
			Key:    fmt.Sprintf("key-%d", i%4),
			Value:  fmt.Sprintf("val-%d", i),
			Origin: rng.IntN(128),
			Round:  i * 3,
		})
	}
	rep, err := Run(Config{Topology: topo, Protocol: proto, RNG: rng}, writes)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Converged {
		incomplete := 0
		for _, ur := range rep.UpdateResults {
			if !ur.AllInformed {
				incomplete++
			}
		}
		t.Fatalf("%d/%d updates incomplete", incomplete, len(writes))
	}
	if !StoresConverged(topo, rep.Stores) {
		t.Error("stores diverged")
	}
	if rep.TransmissionsPerUpdate <= 0 {
		t.Error("no transmissions recorded")
	}
	if rep.TotalTransmissions != int64(rep.TransmissionsPerUpdate*float64(len(writes))) {
		t.Error("transmission accounting inconsistent")
	}
}

func TestMessageLossStillConvergesWithinHorizon(t *testing.T) {
	topo := clusterTopology(t, 64, 6, 9)
	proto, err := core.NewAlgorithm1(64)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Run(Config{
		Topology: topo, Protocol: proto, RNG: xrand.New(10),
		MessageLossProb: 0.2,
	}, []Write{{Key: "x", Value: "1", Origin: 0, Round: 0}})
	if err != nil {
		t.Fatal(err)
	}
	// 20% loss should still converge with the four-choice schedule's slack.
	if !rep.Converged {
		t.Errorf("did not converge under 20%% loss: %d informed", rep.UpdateResults[0].Informed)
	}
}

func TestStoresConvergedDetectsDivergence(t *testing.T) {
	topo := clusterTopology(t, 8, 4, 11)
	stores := make([]Store, 8)
	for i := range stores {
		stores[i].Apply("k", "same", Version{Seq: 1})
	}
	if !StoresConverged(topo, stores) {
		t.Error("identical stores reported diverged")
	}
	stores[3].Apply("k", "other", Version{Seq: 2})
	if StoresConverged(topo, stores) {
		t.Error("diverged stores reported converged")
	}
}
