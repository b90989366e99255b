package overlay

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"reflect"
	"runtime"
	"testing"

	"regcast/internal/graph"
	"regcast/internal/xrand"
)

// TestNewMatchesRandomRegular is the seeding oracle: New pairs its stubs in
// place, and its alive rows must be graph.RandomRegular's rows from the
// same generator, row for row and slot for slot, with the generator left in
// the same stream position — whether the headroom is smaller than n (the
// pairing scratch is allocated), equal to it or larger (the dead headroom
// rows are the scratch).
func TestNewMatchesRandomRegular(t *testing.T) {
	for _, tc := range []struct{ n, d int }{{100, 4}, {1000, 8}, {777, 6}} {
		for _, headroom := range []int{0, tc.n / 3, tc.n - 1, tc.n, tc.n + 1, 3 * tc.n} {
			for seed := uint64(1); seed <= 4; seed++ {
				label := fmt.Sprintf("n=%d d=%d headroom=%d seed=%d", tc.n, tc.d, headroom, seed)
				want := xrand.New(seed)
				g, err := graph.RandomRegular(tc.n, tc.d, want)
				if err != nil {
					t.Fatal(err)
				}
				o, err := New(tc.n, tc.d, headroom, xrand.New(seed))
				if err != nil {
					t.Fatal(err)
				}
				for v := 0; v < tc.n; v++ {
					if !reflect.DeepEqual(o.row(v), g.Neighbors(v)) {
						t.Fatalf("%s: row %d = %v, want %v", label, v, o.row(v), g.Neighbors(v))
					}
				}
				if *o.rng != *want {
					t.Fatalf("%s: the overlay's generator ended elsewhere than RandomRegular's", label)
				}
				if err := o.CheckInvariants(); err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				if free := freeList(o); o.AliveCount() != tc.n || o.NumNodes() != tc.n+headroom || len(free) != headroom {
					t.Fatalf("%s: alive %d, ids %d, free %d", label, o.AliveCount(), o.NumNodes(), len(free))
				}
			}
		}
	}
}

// freeList is the ids Join may take in the order of the free-id stack the
// overlay kept before the list moved into its dead rows, bottom first: the
// never-used ids descending, then the departed ids oldest first. Join
// takes the last.
func freeList(o *Overlay) []int32 {
	var departed []int32 // newest first
	for id := o.freeHead; id >= 0; id = o.stubs[int(id)*o.d] {
		departed = append(departed, id)
	}
	var ids []int32
	for id := len(o.deg) - 1; id >= int(o.fresh); id-- {
		ids = append(ids, int32(id))
	}
	for i := len(departed) - 1; i >= 0; i-- {
		ids = append(ids, departed[i])
	}
	return ids
}

// stateDigest hashes everything of an overlay a later operation can read:
// every id's degree and liveness, the rows in use, the free ids in the old
// stack's order (freeList), the churn counts and the generator's position.
// Dead rows' stale stubs are unspecified and left out.
func stateDigest(ch *Churner, cnt *churnCount) uint64 {
	o := ch.Overlay
	h := fnv.New64a()
	var buf [8]byte
	put := func(x uint64) {
		binary.LittleEndian.PutUint64(buf[:], x)
		h.Write(buf[:])
	}
	for v := range o.deg {
		put(uint64(o.deg[v]))
		if o.Alive(v) {
			put(1)
		} else {
			put(0)
		}
		for _, w := range o.row(v) {
			put(uint64(w))
		}
	}
	for _, id := range freeList(o) {
		put(uint64(id))
	}
	put(uint64(o.aliveCnt))
	put(o.epoch)
	r, c := *o.rng, *ch.rng
	put(r.Uint64())
	put(c.Uint64())
	put(uint64(cnt.joins))
	put(uint64(cnt.leaves))
	// The digests were recorded with a count of refused operations beside
	// the joins and leaves; TestChurnStateGolden asserts that no step
	// refuses one, so that count is 0.
	put(0)
	return h.Sum64()
}

// TestChurnStateGolden pins an overlay's whole state after 500 churn steps
// (2 % joins, 2 % leaves, five mix steps per round) with headroom below,
// at and above n: the digests were recorded before New paired its stubs in
// place, so the seeding, the free-id order and every later draw are those
// of the build that copied a RandomRegular graph.
func TestChurnStateGolden(t *testing.T) {
	for _, tc := range []struct {
		headroom int
		want     uint64
	}{
		{300, 0x591a15fc6a304589},
		{1000, 0xd76415a5ca8b3120},
		{2500, 0x8aa393656d1f47d},
	} {
		master := xrand.New(2026)
		o, err := New(1000, 8, tc.headroom, master.Split())
		if err != nil {
			t.Fatal(err)
		}
		ch, err := NewChurner(o, 0.02, 0.02, 5, master.Split())
		if err != nil {
			t.Fatal(err)
		}
		cnt := &churnCount{}
		for round := 1; round <= 500; round++ {
			joined := cnt.step(ch, round)
			// A refused leave leaves d+1 or fewer peers before the joins;
			// a refused join leaves every slot alive.
			if after := o.AliveCount(); after-len(joined) <= o.d+1 || after == len(o.deg) {
				t.Fatalf("headroom %d round %d: %d peers alive after %d joins: a step may have refused an operation", tc.headroom, round, after, len(joined))
			}
		}
		if err := o.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		if got := stateDigest(ch, cnt); got != tc.want {
			t.Errorf("headroom %d: state digest %#x, want %#x (joins %d, leaves %d)",
				tc.headroom, got, tc.want, cnt.joins, cnt.leaves)
		}
	}
}

// TestOverlayNewAllocBudget guards New's footprint at the churn benchmark's
// size (n = 16384, d = 8, headroom n): it allocates the overlay's own
// arrays — stubs, deg and aliveBits, each once — and nothing more but a
// small slack (Leave's d-stub scratch, the struct, size-class rounding).
// A seeding Graph, a separately allocated pairing scratch (headroom >= n
// lends its rows), an offsets array (the CSR view has a fixed stride) or a
// free-id array (the free list lives in the dead rows) would each break it.
func TestOverlayNewAllocBudget(t *testing.T) {
	const n, d, headroom = 16384, 8, 16384
	const capacity = n + headroom
	const budget = 4*capacity*d + 4*capacity + 8*((capacity+63)/64)
	const slack = 64 << 10
	var before, after runtime.MemStats
	const runs = 4
	runtime.ReadMemStats(&before)
	for seed := uint64(1); seed <= runs; seed++ {
		if _, err := New(n, d, headroom, xrand.New(seed)); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	perNew := (after.TotalAlloc - before.TotalAlloc) / runs
	t.Logf("overlay.New(%d, %d, %d) allocates %d B; arrays %d B, slack %d B", n, d, headroom, perNew, budget, slack)
	if perNew > budget+slack {
		t.Fatalf("overlay.New(%d, %d, %d) allocates %d B, want <= %d (arrays) + %d (slack)", n, d, headroom, perNew, budget, slack)
	}
}
