package transport

import (
	"testing"
	"time"
)

// TestDupemapHasAddRotate drives the ring by the clock its callers pass:
// one rotation per elapsed interval, on access.
func TestDupemapHasAddRotate(t *testing.T) {
	t0 := time.Unix(1000, 0)
	m := newDupemap(3, 0, time.Second, t0)
	if m.Has(1, t0) {
		t.Error("empty map claims key")
	}
	m.Add(1, t0)
	if !m.Has(1, t0) {
		t.Error("key lost right after Add")
	}
	// A key survives gens-1 rotations and expires on the gens-th.
	if !m.Has(1, t0.Add(2*time.Second)) {
		t.Error("key expired before its generation aged out")
	}
	if m.Has(1, t0.Add(3*time.Second)) {
		t.Error("key survived full rotation of the ring")
	}
	// A gap longer than the ring clears it and restarts the schedule.
	m.Add(2, t0.Add(time.Hour))
	if !m.Has(2, t0.Add(time.Hour+2*time.Second)) || m.Has(2, t0.Add(time.Hour+3*time.Second)) {
		t.Error("schedule did not restart after a long gap")
	}
}

func TestDupemapMinimumGenerations(t *testing.T) {
	m := newDupemap(0, 0, time.Second, time.Time{})
	if len(m.gens) != 2 {
		t.Errorf("gens = %d, want clamp to 2", len(m.gens))
	}
}

func TestDupemapCapacityForcesRotation(t *testing.T) {
	var now time.Time
	m := newDupemap(2, 4, 0, now) // no interval: capacity rotation only
	for k := uint64(0); k < 4; k++ {
		m.Add(k, now)
	}
	// The current generation is full: the next Add must rotate first
	// instead of growing without bound.
	m.Add(99, now)
	if got := len(m.gens[m.cur]); got != 1 {
		t.Errorf("current generation holds %d keys after forced rotation, want 1", got)
	}
	if !m.Has(0, now) || !m.Has(99, now) {
		t.Error("keys lost by forced rotation (previous generation must survive)")
	}
}

func TestContentKeyProperties(t *testing.T) {
	a := Packet{Kind: KindPush, Rumors: []Rumor{{ID: "a", Payload: "1"}, {ID: "b", Payload: "2"}}}
	b := Packet{Kind: KindPullReply, Rumors: []Rumor{{ID: "b", Payload: "2"}, {ID: "a", Payload: "1"}}}
	ka, ok := contentKey(3, a)
	if !ok {
		t.Fatal("rumour-bearing packet not dedupable")
	}
	kb, _ := contentKey(3, b)
	if ka != kb {
		t.Error("content key depends on rumour order or packet kind")
	}
	// Pull requests carry no content and must never be suppressed.
	if _, ok := contentKey(3, Packet{Kind: KindPullRequest}); ok {
		t.Error("pull request marked dedupable")
	}
	// Different receivers track their own seen-set.
	kOther, _ := contentKey(4, a)
	if ka == kOther {
		t.Error("content key ignores the receiver")
	}
	// Different content, different key.
	c := Packet{Kind: KindPush, Rumors: []Rumor{{ID: "a", Payload: "other"}}}
	kc, _ := contentKey(3, c)
	if ka == kc {
		t.Error("distinct payloads collide")
	}
}
