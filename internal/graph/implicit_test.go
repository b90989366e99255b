package graph

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"

	"regcast/internal/xrand"
)

// materializedEqual asserts g's CSR rows are element-for-element
// NeighborAt(v, 0..Degree(v)) — the Implicit contract.
func materializedEqual(t *testing.T, im Implicit, g *Graph) {
	t.Helper()
	n := im.NumNodes()
	if g.NumNodes() != n {
		t.Fatalf("node count: implicit %d, materialised %d", n, g.NumNodes())
	}
	for v := 0; v < n; v++ {
		deg := im.Degree(v)
		if g.Degree(v) != deg {
			t.Fatalf("node %d: implicit degree %d, materialised %d", v, deg, g.Degree(v))
		}
		row := g.Neighbors(v)
		for i := 0; i < deg; i++ {
			if got := im.NeighborAt(v, i); got != row[i] {
				t.Fatalf("node %d slot %d: NeighborAt %d, CSR %d", v, i, got, row[i])
			}
		}
	}
}

func TestImplicitHypercubeMatchesDense(t *testing.T) {
	for _, dim := range []int{1, 3, 7, 10} {
		im, err := NewImplicitHypercube(dim)
		if err != nil {
			t.Fatalf("dim %d: %v", dim, err)
		}
		dense, err := Hypercube(dim)
		if err != nil {
			t.Fatalf("dense dim %d: %v", dim, err)
		}
		materializedEqual(t, im, dense)
		if !dense.IsRegular(dim) || !dense.IsConnected() || !dense.IsSimple() {
			t.Fatalf("dim %d: hypercube not a simple connected %d-regular graph", dim, dim)
		}
	}
	if _, err := NewImplicitHypercube(0); err == nil {
		t.Fatal("dim 0 accepted")
	}
	if _, err := NewImplicitHypercube(31); err == nil {
		t.Fatal("dim 31 accepted (node ids would overflow int32)")
	}
}

func TestImplicitTorusMatchesDense(t *testing.T) {
	for _, dims := range [][2]int{{3, 3}, {3, 8}, {16, 5}, {32, 32}} {
		im, err := NewImplicitTorus(dims[0], dims[1])
		if err != nil {
			t.Fatalf("%dx%d: %v", dims[0], dims[1], err)
		}
		dense, err := Torus(dims[0], dims[1])
		if err != nil {
			t.Fatalf("dense %dx%d: %v", dims[0], dims[1], err)
		}
		materializedEqual(t, im, dense)
		if !dense.IsRegular(4) || !dense.IsConnected() {
			t.Fatalf("%dx%d: torus not a connected 4-regular graph", dims[0], dims[1])
		}
	}
	if _, err := NewImplicitTorus(2, 5); err == nil {
		t.Fatal("2-row torus accepted (up/down neighbors collide)")
	}
}

func TestMaterializeRejectsInt32Overflow(t *testing.T) {
	// dim 27: 2^27 nodes × 27 stubs > MaxInt32 adjacency slots. The
	// implicit family handles the size; only materialisation must refuse.
	im, err := NewImplicitHypercube(27)
	if err != nil {
		t.Fatalf("implicit dim 27: %v", err)
	}
	if _, err := Materialize(im); err == nil {
		t.Fatal("Materialize accepted 2^27×27 adjacency slots")
	}
}

// TestGnpStreamRejectsIdSpacePastInt32: ids are int32 on every view, so
// the constructor refuses n > MaxInt32 before it allocates the degree
// array (8 GiB at 2³¹).
func TestGnpStreamRejectsIdSpacePastInt32(t *testing.T) {
	if _, err := NewGnpStream(math.MaxInt32+1, 0, 1); err == nil {
		t.Fatal("NewGnpStream accepted n = MaxInt32+1")
	}
}

func TestGnpStreamMatchesMaterialized(t *testing.T) {
	for _, tc := range []struct {
		n    int
		p    float64
		seed uint64
	}{
		{50, 0.3, 1},
		{400, 16.0 / 400, 7},
		{64, 0, 9},
		{10, 1, 3},
	} {
		im, err := NewGnpStream(tc.n, tc.p, tc.seed)
		if err != nil {
			t.Fatalf("n=%d p=%v: %v", tc.n, tc.p, err)
		}
		g, err := Materialize(im)
		if err != nil {
			t.Fatalf("materialize n=%d p=%v: %v", tc.n, tc.p, err)
		}
		materializedEqual(t, im, g)
		// Rows are strictly ascending neighbor lists without v itself.
		for v := 0; v < tc.n; v++ {
			row := g.Neighbors(v)
			for i, w := range row {
				if int(w) == v {
					t.Fatalf("n=%d p=%v: row %d holds a self-loop", tc.n, tc.p, v)
				}
				if i > 0 && row[i-1] >= w {
					t.Fatalf("n=%d p=%v: row %d not strictly ascending", tc.n, tc.p, v)
				}
			}
		}
		if tc.p == 1 {
			for v := 0; v < tc.n; v++ {
				if im.Degree(v) != tc.n-1 {
					t.Fatalf("p=1: node %d degree %d, want %d", v, im.Degree(v), tc.n-1)
				}
			}
		}
		if tc.p == 0 {
			for v := 0; v < tc.n; v++ {
				if im.Degree(v) != 0 {
					t.Fatalf("p=0: node %d degree %d, want 0", v, im.Degree(v))
				}
			}
		}
	}
}

func TestGnpStreamDeterministicAcrossInstances(t *testing.T) {
	a, err := NewGnpStream(200, 0.05, 42)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewGnpStream(200, 0.05, 42)
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < 200; v++ {
		if a.Degree(v) != b.Degree(v) {
			t.Fatalf("node %d: degree %d vs %d across instances", v, a.Degree(v), b.Degree(v))
		}
		for i := 0; i < a.Degree(v); i++ {
			if a.NeighborAt(v, i) != b.NeighborAt(v, i) {
				t.Fatalf("node %d slot %d differs across same-seed instances", v, i)
			}
		}
	}
	c, err := NewGnpStream(200, 0.05, 43)
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for v := 0; v < 200 && same; v++ {
		if a.Degree(v) != c.Degree(v) {
			same = false
		}
	}
	if same {
		t.Fatal("seeds 42 and 43 produced identical degree sequences")
	}
}

func TestRegularStreamPermutationStructure(t *testing.T) {
	type shape struct {
		n, d int
		seed uint64
	}
	cases := []shape{
		{100, 4, 1},
		{257, 8, 5}, // one past a power of two: the longest cycle-walks
		{64, 2, 9},
		{1000, 6, 11},
	}
	// Every width w = 2..13, at both ends of each width's range of n and
	// on the power of two itself, where the domain is exactly n.
	ns := []int{3, 4, 5}
	for k := 2; k <= 12; k++ {
		ns = append(ns, 1<<k-1, 1<<k, 1<<k+1)
	}
	for _, n := range ns {
		for _, d := range []int{2, 4} {
			if d < n {
				cases = append(cases, shape{n, d, uint64(n*7 + d)})
			}
		}
	}
	checkDomain := func(im *RegularStream) {
		t.Helper()
		if n, dom := uint64(im.NumNodes()), im.FeistelDomain(); dom < n || dom >= 2*n {
			t.Fatalf("n=%d: Feistel domain %d outside [n, 2n)", n, dom)
		}
	}
	for _, tc := range cases {
		im, err := NewRegularStream(tc.n, tc.d, tc.seed)
		if err != nil {
			t.Fatalf("n=%d d=%d: %v", tc.n, tc.d, err)
		}
		checkDomain(im)
		// Each 2-factor is a bijection whose odd slot inverts its even
		// slot (slot 2j = π_j, 2j+1 = π_j⁻¹).
		for j := 0; j < tc.d/2; j++ {
			seen := make([]bool, tc.n)
			for v := 0; v < tc.n; v++ {
				w := int(im.NeighborAt(v, 2*j))
				if w < 0 || w >= tc.n {
					t.Fatalf("n=%d: π_%d(%d) = %d out of range", tc.n, j, v, w)
				}
				if seen[w] {
					t.Fatalf("n=%d: π_%d not injective at image %d", tc.n, j, w)
				}
				seen[w] = true
				if back := int(im.NeighborAt(w, 2*j+1)); back != v {
					t.Fatalf("n=%d: π_%d⁻¹(π_%d(%d)) = %d", tc.n, j, j, v, back)
				}
			}
		}
		// The materialised multigraph is d-regular and symmetric (the CSR
		// constructor-independent check: w in row v as often as v in row w).
		g, err := Materialize(im)
		if err != nil {
			t.Fatalf("materialize n=%d d=%d: %v", tc.n, tc.d, err)
		}
		materializedEqual(t, im, g)
		if !g.IsRegular(tc.d) {
			t.Fatalf("n=%d d=%d: not %d-regular", tc.n, tc.d, tc.d)
		}
		type arc struct{ v, w int32 }
		count := make(map[arc]int)
		for v := 0; v < tc.n; v++ {
			for _, w := range g.Neighbors(v) {
				count[arc{int32(v), w}]++
			}
		}
		for a, c := range count {
			if count[arc{a.w, a.v}] != c {
				t.Fatalf("asymmetric multiset: (%d,%d)×%d vs (%d,%d)×%d",
					a.v, a.w, c, a.w, a.v, count[arc{a.w, a.v}])
			}
		}
	}
	// Too large to enumerate: sampled round trips at the E23 size (w = 27)
	// and at the int32 ceiling (w = 31).
	for _, n := range []int{100_000_000, math.MaxInt32} {
		im, err := NewRegularStream(n, 16, 7)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		checkDomain(im)
		rng := xrand.New(uint64(n))
		for s := 0; s < 20000; s++ {
			v, i := rng.IntN(n), rng.IntN(16)
			if s < 32 {
				v = n - 1 - s/16 // the top of the range, every slot
				i = s % 16
			}
			w := int(im.NeighborAt(v, i))
			if w < 0 || w >= n {
				t.Fatalf("n=%d: NeighborAt(%d,%d) = %d out of range", n, v, i, w)
			}
			if back := int(im.NeighborAt(w, i^1)); back != v {
				t.Fatalf("n=%d: slot %d then %d maps %d to %d to %d", n, i, i^1, v, w, back)
			}
		}
	}
	if _, err := NewRegularStream(100, 3, 1); err == nil {
		t.Fatal("odd degree accepted")
	}
	if _, err := NewRegularStream(4, 4, 1); err == nil {
		t.Fatal("d >= n accepted")
	}
}

// TestRegularStreamGolden pins the family's exact rows: nothing else in
// the suite notices a changed permutation (every other test compares the
// stream with its own materialisation). A change to the Feistel network,
// its round function or the key schedule reseeds every regular-stream
// run; it must edit these constants and say so in EXPERIMENTS.md.
func TestRegularStreamGolden(t *testing.T) {
	for _, tc := range []struct {
		n, d, rows int
		seed       uint64
		want       uint64
	}{
		{256, 6, 256, 32, 0x13b011f6117fb705},    // even width, domain = n
		{300, 6, 300, 17, 0xd093cd14fb18612d},    // odd width with cycle-walking
		{131072, 16, 1024, 1, 0x646617f4821000b}, // the stream-push benchmark shape
	} {
		im, err := NewRegularStream(tc.n, tc.d, tc.seed)
		if err != nil {
			t.Fatalf("n=%d d=%d: %v", tc.n, tc.d, err)
		}
		h := fnv.New64a()
		var buf [4]byte
		for v := 0; v < tc.rows; v++ {
			for i := 0; i < tc.d; i++ {
				binary.LittleEndian.PutUint32(buf[:], uint32(im.NeighborAt(v, i)))
				h.Write(buf[:])
			}
		}
		if got := h.Sum64(); got != tc.want {
			t.Errorf("n=%d d=%d seed=%d: FNV-1a of the first %d rows = %#x, want %#x",
				tc.n, tc.d, tc.seed, tc.rows, got, tc.want)
		}
	}
}
