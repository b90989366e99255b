// Package viz renders numeric series as plain-text charts for terminal
// output — the "figures" accompanying the experiment tables. It is
// dependency-free and deterministic: cmd/broadcast-sim uses it for the
// informed-fraction trajectory of a traced run (-trace), and the examples
// use it to visualise phase structure. Like package table, its output
// contains no timestamps or nondeterminism, so charts are reproducible
// from the run seed.
package viz

import (
	"fmt"
	"math"
	"strings"
)

// Series is one named curve. Chart plots the i-th series with the i-th
// of eight marker runes, cycling.
type Series struct {
	Name   string
	Values []float64
}

var markers = []rune{'*', '+', 'o', 'x', '#', '@', '%', '&'}

// Chart renders the series into a width×height character grid with a
// y-axis label column and an x-axis. X is the sample index (scaled to
// width); Y is scaled to the joint min/max of all series.
func Chart(width, height int, series ...Series) (string, error) {
	if width < 8 || height < 2 {
		return "", fmt.Errorf("viz: chart size %dx%d too small", width, height)
	}
	if len(series) == 0 {
		return "", fmt.Errorf("viz: no series")
	}
	maxLen := 0
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, s := range series {
		if len(s.Values) > maxLen {
			maxLen = len(s.Values)
		}
		for _, v := range s.Values {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return "", fmt.Errorf("viz: series %q contains non-finite value", s.Name)
			}
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
	}
	if maxLen == 0 {
		return "", fmt.Errorf("viz: all series empty")
	}
	if hi == lo {
		hi = lo + 1 // flat data: give the band some height
	}

	grid := make([][]rune, height)
	for r := range grid {
		grid[r] = []rune(strings.Repeat(" ", width))
	}
	for si, s := range series {
		marker := markers[si%len(markers)]
		for i, v := range s.Values {
			col := 0
			if maxLen > 1 {
				col = i * (width - 1) / (maxLen - 1)
			}
			rowFrac := (v - lo) / (hi - lo)
			row := height - 1 - int(math.Round(rowFrac*float64(height-1)))
			grid[row][col] = marker
		}
	}

	var b strings.Builder
	for r, row := range grid {
		label := "        "
		switch r {
		case 0:
			label = fmt.Sprintf("%7.3g ", hi)
		case height - 1:
			label = fmt.Sprintf("%7.3g ", lo)
		}
		b.WriteString(label)
		b.WriteString("|")
		b.WriteString(string(row))
		b.WriteString("\n")
	}
	b.WriteString(strings.Repeat(" ", 8) + "+" + strings.Repeat("-", width) + "\n")
	b.WriteString(strings.Repeat(" ", 9) + fmt.Sprintf("1 .. %d (samples)", maxLen) + "\n")
	legend := make([]string, 0, len(series))
	for si, s := range series {
		legend = append(legend, fmt.Sprintf("%c %s", markers[si%len(markers)], s.Name))
	}
	b.WriteString(strings.Repeat(" ", 9) + strings.Join(legend, "   ") + "\n")
	return b.String(), nil
}
