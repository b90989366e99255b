package baseline

import (
	"math"
	"testing"

	"regcast/internal/graph"
	"regcast/internal/phonecall"
	"regcast/internal/xrand"
)

func TestNewScheduleValidation(t *testing.T) {
	if _, err := NewSchedule("x", nil, nil); err == nil {
		t.Error("empty schedule accepted")
	}
	if _, err := NewSchedule("x", make([]bool, 3), make([]bool, 4)); err == nil {
		t.Error("mismatched tables accepted")
	}
	s, err := NewSchedule("x", []bool{true}, []bool{false})
	if err != nil {
		t.Fatal(err)
	}
	if s.Horizon() != 1 || s.Choices() != 1 {
		t.Errorf("horizon=%d choices=%d", s.Horizon(), s.Choices())
	}
}

func TestScheduleIsDefensivelyCopied(t *testing.T) {
	push := []bool{true, true}
	pull := []bool{false, false}
	s, err := NewSchedule("copy", push, pull)
	if err != nil {
		t.Fatal(err)
	}
	push[0] = false
	if !s.SendPush(1, 0) {
		t.Error("schedule shares caller's backing array")
	}
}

func TestConstructors(t *testing.T) {
	ap, err := AlwaysPush(10)
	if err != nil {
		t.Fatal(err)
	}
	for tt := 1; tt <= 10; tt++ {
		if !ap.SendPush(tt, 0) || ap.SendPull(tt, 0) {
			t.Fatalf("AlwaysPush wrong at round %d", tt)
		}
	}
	both, err := AlwaysBoth(5)
	if err != nil {
		t.Fatal(err)
	}
	if !both.SendPush(3, 0) || !both.SendPull(3, 0) {
		t.Error("AlwaysBoth wrong")
	}
	alt, err := Alternating(4)
	if err != nil {
		t.Fatal(err)
	}
	if !alt.SendPush(1, 0) || alt.SendPull(1, 0) || alt.SendPush(2, 0) || !alt.SendPull(2, 0) {
		t.Error("Alternating wrong")
	}
}

func TestPushThenPull(t *testing.T) {
	s, err := PushThenPull(3, 6)
	if err != nil {
		t.Fatal(err)
	}
	for tt := 1; tt <= 3; tt++ {
		if !s.SendPush(tt, 0) || s.SendPull(tt, 0) {
			t.Fatalf("round %d should push only", tt)
		}
	}
	for tt := 4; tt <= 6; tt++ {
		if s.SendPush(tt, 0) || !s.SendPull(tt, 0) {
			t.Fatalf("round %d should pull only", tt)
		}
	}
	if _, err := PushThenPull(7, 6); err == nil {
		t.Error("switchAt > horizon accepted")
	}
	if _, err := PushThenPull(-1, 6); err == nil {
		t.Error("negative switchAt accepted")
	}
}

func TestOutOfRangeRoundsAreSilent(t *testing.T) {
	s, err := AlwaysBoth(3)
	if err != nil {
		t.Fatal(err)
	}
	if s.SendPush(0, 0) || s.SendPush(4, 0) || s.SendPull(0, 0) || s.SendPull(4, 0) {
		t.Error("schedule active outside its horizon")
	}
}

func TestTransmissionBound(t *testing.T) {
	// n log₂ n / log₂ d at n=1024, d=4: 1024*10/2 = 5120.
	if b := TransmissionBound(1024, 4); math.Abs(b-5120) > 1e-9 {
		t.Errorf("bound = %v, want 5120", b)
	}
	if TransmissionBound(1, 4) != 0 || TransmissionBound(1024, 1) != 0 {
		t.Error("degenerate inputs should give 0")
	}
	// Larger d weakens the bound (log d in the denominator).
	if TransmissionBound(1024, 16) >= TransmissionBound(1024, 4) {
		t.Error("bound not decreasing in d")
	}
}

func TestSchedulesRunInEngine(t *testing.T) {
	g, err := graph.RandomRegular(256, 6, xrand.New(1))
	if err != nil {
		t.Fatal(err)
	}
	horizon := 3 * 8 // 3·log₂(256)
	mk := func(f func(int) (*Schedule, error)) *Schedule {
		s, err := f(horizon)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	for _, s := range []*Schedule{mk(AlwaysPush), mk(AlwaysBoth)} {
		res, err := phonecall.Run(phonecall.Config{
			Topology: phonecall.NewStatic(g), Protocol: s, RNG: xrand.New(2),
		})
		if err != nil {
			t.Fatal(err)
		}
		if !res.AllInformed {
			t.Errorf("%s informed %d/256", s.Name(), res.Informed)
		}
	}
}

func TestOneChoicePushPaysNearTheBound(t *testing.T) {
	// Theorem 1 in practice: a completing one-choice push run on G(n,d)
	// costs Ω(n log n / log d) transmissions. Check that the measured cost
	// is at least a 1/8 fraction of the reference curve (constants in the
	// theorem are generous) and of the right order.
	const n, d = 2048, 8
	g, err := graph.RandomRegular(n, d, xrand.New(3))
	if err != nil {
		t.Fatal(err)
	}
	s, err := AlwaysPush(3 * 11)
	if err != nil {
		t.Fatal(err)
	}
	res, err := phonecall.Run(phonecall.Config{
		Topology: phonecall.NewStatic(g), Protocol: s, RNG: xrand.New(4), StopEarly: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.AllInformed {
		t.Fatal("push incomplete")
	}
	bound := TransmissionBound(n, d)
	if float64(res.Transmissions) < bound/8 {
		t.Errorf("transmissions %d below bound/8 = %v — lower bound violated?", res.Transmissions, bound/8)
	}
}
