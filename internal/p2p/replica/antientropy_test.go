package replica

import (
	"fmt"
	"testing"

	"regcast/internal/core"
	"regcast/internal/xrand"
)

func TestMergeSemantics(t *testing.T) {
	var a, b Store
	a.Apply("x", "old", Version{Seq: 1})
	b.Apply("x", "new", Version{Seq: 2})
	b.Apply("y", "only-b", Version{Seq: 1})

	a.Merge(&b)
	if v, _ := a.Get("x"); v != "new" {
		t.Errorf("x = %q after merge", v)
	}
	if _, ok := a.Get("y"); !ok {
		t.Error("y missing after merge")
	}
	// Merging back must not change b: it already has the newest entries.
	before := b.Fingerprint()
	if b.Merge(&a); b.Fingerprint() != before {
		t.Errorf("reverse merge changed b: %s → %s", before, b.Fingerprint())
	}
	// Idempotence.
	before = a.Fingerprint()
	if a.Merge(&b); a.Fingerprint() != before {
		t.Errorf("repeated merge changed a: %s → %s", before, a.Fingerprint())
	}
	if a.Fingerprint() != b.Fingerprint() {
		t.Error("stores differ after mutual merge")
	}
}

func TestEntriesIsACopy(t *testing.T) {
	var s Store
	s.Apply("k", "v", Version{Seq: 1})
	es := s.Entries()
	es["k"] = Entry{Value: "mutated", Version: Version{Seq: 9}}
	if v, _ := s.Get("k"); v != "v" {
		t.Error("Entries exposed internal map")
	}
}

func TestAntiEntropyValidation(t *testing.T) {
	topo := clusterTopology(t, 16, 4, 40)
	stores := make([]Store, 16)
	rng := xrand.New(1)
	if _, err := AntiEntropy(nil, stores, rng, 5); err == nil {
		t.Error("nil topology accepted")
	}
	if _, err := AntiEntropy(topo, stores[:3], rng, 5); err == nil {
		t.Error("store count mismatch accepted")
	}
	if _, err := AntiEntropy(topo, stores, rng, -1); err == nil {
		t.Error("negative maxRounds accepted")
	}
}

func TestAntiEntropyConvergesFromSingleHolder(t *testing.T) {
	const n = 64
	topo := clusterTopology(t, n, 6, 41)
	stores := make([]Store, n)
	stores[0].Apply("k", "v", Version{Seq: 1})
	rep, err := AntiEntropy(topo, stores, xrand.New(2), 50)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Converged {
		t.Fatalf("not converged after %d rounds (%d exchanges)", rep.Rounds, rep.Exchanges)
	}
	for i := range stores {
		if v, ok := stores[i].Get("k"); !ok || v != "v" {
			t.Fatalf("replica %d missing k", i)
		}
	}
}

func TestAntiEntropyNoWorkWhenConverged(t *testing.T) {
	topo := clusterTopology(t, 8, 4, 42)
	stores := make([]Store, 8)
	for i := range stores {
		stores[i].Apply("k", "v", Version{Seq: 1})
	}
	rep, err := AntiEntropy(topo, stores, xrand.New(3), 10)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Converged || rep.Rounds != 0 || rep.Exchanges != 0 {
		t.Errorf("converged input still did work: %+v", rep)
	}
}

func TestAntiEntropyRepairsLossyBroadcast(t *testing.T) {
	// End-to-end: broadcast under heavy loss leaves stragglers; a short
	// anti-entropy pass completes convergence.
	const n = 128
	topo := clusterTopology(t, n, 6, 43)
	proto, err := core.NewAlgorithm1(n)
	if err != nil {
		t.Fatal(err)
	}
	var writes []Write
	for i := 0; i < 5; i++ {
		writes = append(writes, Write{
			Key: fmt.Sprintf("k%d", i), Value: fmt.Sprintf("v%d", i), Origin: i * 20, Round: i,
		})
	}
	rep, err := Run(Config{
		Topology: topo, Protocol: proto, RNG: xrand.New(4), MessageLossProb: 0.6,
	}, writes)
	if err != nil {
		t.Fatal(err)
	}
	ae, err := AntiEntropy(topo, rep.Stores, xrand.New(5), 50)
	if err != nil {
		t.Fatal(err)
	}
	if !ae.Converged {
		t.Fatalf("anti-entropy failed to converge after %d rounds", ae.Rounds)
	}
	if !StoresConverged(topo, rep.Stores) {
		t.Error("stores still diverged")
	}
	for i := 0; i < 5; i++ {
		if v, ok := rep.Stores[100].Get(fmt.Sprintf("k%d", i)); !ok || v != fmt.Sprintf("v%d", i) {
			t.Errorf("replica 100 k%d = %q, %v", i, v, ok)
		}
	}
}

func TestAntiEntropyBudgetExhaustion(t *testing.T) {
	// maxRounds=0: no repair happens, convergence reported honestly.
	const n = 32
	topo := clusterTopology(t, n, 4, 44)
	stores := make([]Store, n)
	stores[0].Apply("k", "v", Version{Seq: 1})
	rep, err := AntiEntropy(topo, stores, xrand.New(6), 0)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Converged {
		t.Error("divergent stores reported converged at budget 0")
	}
}
