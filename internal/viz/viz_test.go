package viz

import (
	"math"
	"strings"
	"testing"
)

func TestChartBasic(t *testing.T) {
	out, err := Chart(40, 10, Series{Name: "informed", Values: []float64{0, 0.1, 0.5, 0.9, 1}})
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 13 { // 10 grid + axis + x-label + legend
		t.Fatalf("expected 13 lines, got %d:\n%s", len(lines), out)
	}
	if !strings.Contains(out, "* informed") {
		t.Error("legend missing")
	}
	if !strings.Contains(out, "1 .. 5") {
		t.Error("x range missing")
	}
	// Highest value must land in the top grid row, lowest in the bottom.
	if !strings.Contains(lines[0], "*") {
		t.Errorf("top row empty:\n%s", out)
	}
	if !strings.Contains(lines[9], "*") {
		t.Errorf("bottom row empty:\n%s", out)
	}
}

func TestChartMultipleSeries(t *testing.T) {
	out, err := Chart(30, 8,
		Series{Name: "a", Values: []float64{1, 2, 3}},
		Series{Name: "b", Values: []float64{3, 2, 1}},
	)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "* a") || !strings.Contains(out, "+ b") {
		t.Errorf("markers not assigned:\n%s", out)
	}
}

func TestChartErrors(t *testing.T) {
	if _, err := Chart(4, 10, Series{Name: "x", Values: []float64{1}}); err == nil {
		t.Error("tiny width accepted")
	}
	if _, err := Chart(20, 1, Series{Name: "x", Values: []float64{1}}); err == nil {
		t.Error("tiny height accepted")
	}
	if _, err := Chart(20, 5); err == nil {
		t.Error("no series accepted")
	}
	if _, err := Chart(20, 5, Series{Name: "x"}); err == nil {
		t.Error("empty series accepted")
	}
	if _, err := Chart(20, 5, Series{Name: "x", Values: []float64{math.NaN()}}); err == nil {
		t.Error("NaN accepted")
	}
}

func TestChartFlatSeries(t *testing.T) {
	out, err := Chart(20, 5, Series{Name: "flat", Values: []float64{2, 2, 2}})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "*") {
		t.Error("flat series not plotted")
	}
}
