package baseline

import (
	"testing"

	"regcast/internal/graph"
	"regcast/internal/phonecall"
	"regcast/internal/xrand"
)

func testGraph(t *testing.T, n, d int, seed uint64) *graph.Graph {
	t.Helper()
	g, err := graph.RandomRegular(n, d, xrand.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestConstructorsValidate(t *testing.T) {
	if _, err := NewPush(1, 1); err == nil {
		t.Error("NewPush(1,1) accepted")
	}
	if _, err := NewPush(100, 0); err == nil {
		t.Error("NewPush k=0 accepted")
	}
	if _, err := NewPull(1, 1); err == nil {
		t.Error("NewPull(1,1) accepted")
	}
	if _, err := NewPushPull(100, -1); err == nil {
		t.Error("NewPushPull k=-1 accepted")
	}
}

func TestPushScheduleShape(t *testing.T) {
	p, err := NewPush(1024, 1)
	if err != nil {
		t.Fatal(err)
	}
	if p.Choices() != 1 {
		t.Errorf("Choices = %d", p.Choices())
	}
	if p.Horizon() != 30 { // ceil(3 * 10)
		t.Errorf("Horizon = %d, want 30", p.Horizon())
	}
	if !p.SendPush(1, 0) || !p.SendPush(30, 29) {
		t.Error("push baseline must push in every round")
	}
	if p.SendPull(5, 0) {
		t.Error("push baseline pulled")
	}
}

func TestPullScheduleShape(t *testing.T) {
	p, err := NewPull(1024, 1)
	if err != nil {
		t.Fatal(err)
	}
	if p.SendPush(3, 0) {
		t.Error("pull baseline pushed")
	}
	if !p.SendPull(3, 0) {
		t.Error("pull baseline did not pull")
	}
}

func TestPushPullScheduleShape(t *testing.T) {
	p, err := NewPushPull(1024, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !p.SendPush(1, 0) || !p.SendPull(1, 0) {
		t.Error("push-pull must do both")
	}
	// Karp-style horizon: log₃ n + Θ(log log n) ≈ 7 + 14 for n=1024.
	if p.Horizon() < 10 || p.Horizon() > 40 {
		t.Errorf("push-pull horizon = %d, implausible", p.Horizon())
	}
	// Push-pull's horizon must be well below push's (that is the point of
	// the age-based termination).
	push, err := NewPush(1024, 1)
	if err != nil {
		t.Fatal(err)
	}
	if p.Horizon() >= push.Horizon() {
		t.Errorf("push-pull horizon %d >= push horizon %d", p.Horizon(), push.Horizon())
	}
}

func TestPushCompletesOnRegularGraph(t *testing.T) {
	g := testGraph(t, 512, 8, 1)
	p, err := NewPush(512, 1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := phonecall.Run(phonecall.Config{
		Topology: phonecall.NewStatic(g), Protocol: p, RNG: xrand.New(2),
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.AllInformed {
		t.Errorf("push informed %d/512", res.Informed)
	}
}

func TestPullCompletesOnRegularGraph(t *testing.T) {
	g := testGraph(t, 512, 8, 3)
	p, err := NewPull(512, 1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := phonecall.Run(phonecall.Config{
		Topology: phonecall.NewStatic(g), Protocol: p, RNG: xrand.New(4),
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.AllInformed {
		t.Errorf("pull informed %d/512", res.Informed)
	}
}

func TestPushPullCompletesAndUsesFewerTransmissionsThanPush(t *testing.T) {
	const n, d = 2048, 12
	g := testGraph(t, n, d, 5)
	push, err := NewPush(n, 1)
	if err != nil {
		t.Fatal(err)
	}
	pp, err := NewPushPull(n, 1)
	if err != nil {
		t.Fatal(err)
	}
	var pushTx, ppTx int64
	ppIncomplete := 0
	const reps = 5
	for seed := uint64(0); seed < reps; seed++ {
		a, err := phonecall.Run(phonecall.Config{
			Topology: phonecall.NewStatic(g), Protocol: push, RNG: xrand.New(seed),
		})
		if err != nil {
			t.Fatal(err)
		}
		b, err := phonecall.Run(phonecall.Config{
			Topology: phonecall.NewStatic(g), Protocol: pp, RNG: xrand.New(seed + 100),
		})
		if err != nil {
			t.Fatal(err)
		}
		pushTx += a.Transmissions
		ppTx += b.Transmissions
		if !a.AllInformed {
			t.Error("push incomplete")
		}
		if !b.AllInformed {
			ppIncomplete++
		}
	}
	if ppIncomplete > 0 {
		t.Errorf("push-pull incomplete in %d/%d runs", ppIncomplete, reps)
	}
	if ppTx >= pushTx {
		t.Errorf("push-pull transmissions %d not below push %d (Karp separation)", ppTx, pushTx)
	}
}

func TestKChoiceAblationMonotoneRounds(t *testing.T) {
	// More choices per round must not slow the broadcast down (in rounds).
	const n, d = 1024, 8
	g := testGraph(t, n, d, 6)
	meanRounds := func(k int) float64 {
		p, err := NewPush(n, k)
		if err != nil {
			t.Fatal(err)
		}
		total := 0
		const reps = 5
		for seed := uint64(0); seed < reps; seed++ {
			res, err := phonecall.Run(phonecall.Config{
				Topology: phonecall.NewStatic(g), Protocol: p, RNG: xrand.New(seed), StopEarly: true,
			})
			if err != nil {
				t.Fatal(err)
			}
			if !res.AllInformed {
				t.Fatalf("k=%d incomplete", k)
			}
			total += res.FirstAllInformed
		}
		return float64(total) / reps
	}
	r1, r4 := meanRounds(1), meanRounds(4)
	if r4 >= r1 {
		t.Errorf("4-choice push (%.1f rounds) not faster than 1-choice (%.1f)", r4, r1)
	}
}
