package regcast

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"time"

	"regcast/internal/xrand"
)

// AxisValue is one setting of a swept parameter: a label for reports and
// an opaque value handed to the sweep's Build function.
type AxisValue struct {
	Label string
	Value any
}

// Axis is one swept parameter: a name and an ordered list of values.
type Axis struct {
	Name   string
	Values []AxisValue
}

// Vals builds an Axis whose labels are the fmt.Sprint of each value — the
// common case for numeric axes: Vals("n", 1024, 4096, 16384).
func Vals(name string, values ...any) Axis {
	ax := Axis{Name: name}
	for _, v := range values {
		ax.Values = append(ax.Values, AxisValue{Label: fmt.Sprint(v), Value: v})
	}
	return ax
}

// Val builds a labelled AxisValue, for axes whose values don't print
// usefully (protocol constructors, topology builders, fault models).
func Val(label string, value any) AxisValue {
	return AxisValue{Label: label, Value: value}
}

// TopologyAxis builds the conventional "topology" axis from labelled
// declarative specs, so grids can sweep whole topology families —
// including dynamic ones:
//
//	regcast.TopologyAxis(
//		regcast.Val("regular", regcast.RegularGraphSpec{N: n, D: 8}),
//		regcast.Val("hypercube", regcast.HypercubeSpec{Dim: 12}),
//		regcast.Val("overlay-churn", regcast.OverlaySpec{N: n, D: 8, JoinProb: 0.01, LeaveProb: 0.01}),
//	)
//
// Build functions read the spec back with
// p.Value("topology").(regcast.TopologySpec) and hand it to
// NewScenarioSpec.
func TopologyAxis(specs ...AxisValue) Axis {
	return Axis{Name: "topology", Values: specs}
}

// ChurnAxis builds the conventional "churn" axis: per-round join/leave
// probabilities for overlay topologies, labelled by rate.
func ChurnAxis(rates ...float64) Axis {
	ax := Axis{Name: "churn"}
	for _, q := range rates {
		ax.Values = append(ax.Values, AxisValue{Label: fmt.Sprint(q), Value: q})
	}
	return ax
}

// Point is one cell of a sweep's grid: a value fixed on every axis, plus
// the cell's deterministic seed.
type Point struct {
	// Index is the cell's position in the grid's row-major order (the
	// last axis varies fastest).
	Index int
	// Seed is the cell's derived master seed; Build functions should seed
	// their scenario (or Batch.Seed) from it so the whole grid is a pure
	// function of Sweep.Seed.
	Seed uint64

	axes   []Axis
	choice []int // choice[i] indexes axes[i].Values
}

// Value returns the point's value on the named axis. It panics on an
// unknown axis name — a programming error in the Build function.
func (p Point) Value(axis string) any {
	for i, ax := range p.axes {
		if ax.Name == axis {
			return ax.Values[p.choice[i]].Value
		}
	}
	panic(fmt.Sprintf("regcast: sweep point has no axis %q", axis))
}

// Label returns the point's canonical cell label, "axis=value" pairs
// joined with "/" in axis order (e.g. "n=1024/protocol=push").
func (p Point) Label() string {
	parts := make([]string, len(p.axes))
	for i, ax := range p.axes {
		parts[i] = ax.Name + "=" + ax.Values[p.choice[i]].Label
	}
	return strings.Join(parts, "/")
}

// Params returns the point's axis settings as report parameters.
func (p Point) Params() []Param {
	out := make([]Param, len(p.axes))
	for i, ax := range p.axes {
		out[i] = Param{Axis: ax.Name, Value: ax.Values[p.choice[i]].Label}
	}
	return out
}

// Sweep crosses parameter axes (network size, protocol, topology, fault
// model, ...) into an ordered grid of Batches and runs them in grid order.
// Cells run sequentially — each cell's Batch parallelises internally — so
// a sweep's Report inherits the batch layer's determinism: for a fixed
// Seed and grid it is bit-identical for every ReplicationWorkers value.
type Sweep struct {
	// Name identifies the sweep in its Report.
	Name string
	// Seed is the grid's master seed; every cell's Point.Seed derives from
	// it in grid order.
	Seed uint64
	// Axes are the swept parameters; their cross product is the grid, in
	// row-major order with the last axis varying fastest. A sweep with no
	// axes has exactly one cell.
	Axes []Axis
	// Build constructs the cell's Batch — over a broadcast or a population
	// scenario — from a grid point. The returned Batch inherits the sweep's
	// Replications, ReplicationWorkers and Runner for any field it leaves
	// zero. Required.
	Build func(p Point) (Batch, error)
	// Replications is the default replication count for cells whose Batch
	// leaves Replications zero.
	Replications int
	// ReplicationWorkers is the default pool width for cells whose Batch
	// leaves ReplicationWorkers zero (0 = serial, as in Batch).
	ReplicationWorkers int
	// Runner is the default engine for cells whose Batch leaves Runner
	// zero.
	Runner Runner
	// Timing records each cell's wall-clock time in the Report. It is off
	// by default because wall-clock breaks the bit-identical-output
	// guarantee; turn it on for perf-trajectory reports (regcast-bench
	// -timing).
	Timing bool
	// MemStats samples runtime.MemStats around each cell and records the
	// allocation per replication (topology construction included) and the
	// post-cell OS heap in the Report — the memory-wall companion to
	// Timing, and like it environment-dependent, so it breaks the
	// bit-identical-output guarantee and is off by default
	// (regcast-bench -mem). Each cell pays one runtime.GC() so the
	// TotalAlloc delta is not polluted by a collection mid-cell changing
	// allocation batching.
	MemStats bool
}

// Points materialises the grid in row-major order, with each cell's
// derived seed.
func (s Sweep) Points() []Point {
	total := 1
	for _, ax := range s.Axes {
		total *= len(ax.Values)
	}
	if total == 0 {
		return nil
	}
	master := xrand.New(s.Seed)
	points := make([]Point, 0, total)
	choice := make([]int, len(s.Axes))
	for i := 0; i < total; i++ {
		p := Point{Index: i, Seed: master.Uint64(), axes: s.Axes, choice: append([]int(nil), choice...)}
		points = append(points, p)
		for a := len(choice) - 1; a >= 0; a-- { // last axis fastest
			choice[a]++
			if choice[a] < len(s.Axes[a].Values) {
				break
			}
			choice[a] = 0
		}
	}
	return points
}

// Run executes every cell in grid order and collects the Report.
func (s Sweep) Run(ctx context.Context) (*Report, error) {
	if s.Build == nil {
		return nil, fmt.Errorf("regcast: sweep %q needs a Build function", s.Name)
	}
	points := s.Points()
	if len(points) == 0 {
		return nil, fmt.Errorf("regcast: sweep %q has an empty axis", s.Name)
	}
	report := &Report{
		Schema: ReportSchema,
		Name:   s.Name,
		Seed:   s.Seed,
		Cells:  make([]CellReport, 0, len(points)),
	}
	for _, p := range points {
		var memBefore runtime.MemStats
		if s.MemStats {
			runtime.GC()
			runtime.ReadMemStats(&memBefore)
		}
		b, err := s.Build(p)
		if err != nil {
			return nil, fmt.Errorf("regcast: sweep %q cell %s: %w", s.Name, p.Label(), err)
		}
		if b.Replications == 0 {
			b.Replications = s.Replications
		}
		if b.ReplicationWorkers == 0 {
			b.ReplicationWorkers = s.ReplicationWorkers
		}
		if b.Runner == (Runner{}) {
			b.Runner = s.Runner
		}
		start := time.Now()
		res, err := b.Run(ctx)
		if err != nil {
			return nil, fmt.Errorf("regcast: sweep %q cell %s: %w", s.Name, p.Label(), err)
		}
		cell := CellReport{
			Index:         p.Index,
			Label:         p.Label(),
			Params:        p.Params(),
			Replications:  res.Replications,
			Completed:     res.Completed,
			CompletedFrac: res.CompletedFrac(),
			Rounds:        res.Rounds,
			Transmissions: res.Transmissions,
			TxPerNode:     res.TxPerNode,
			InformedFrac:  res.InformedFrac,
		}
		if s.Timing {
			cell.WallClockMS = float64(time.Since(start).Microseconds()) / 1000
		}
		if s.MemStats {
			var after runtime.MemStats
			runtime.ReadMemStats(&after)
			if res.Replications > 0 {
				cell.AllocBPerOp = (after.TotalAlloc - memBefore.TotalAlloc) / uint64(res.Replications)
			}
			cell.HeapSysBytes = after.HeapSys
		}
		report.Cells = append(report.Cells, cell)
	}
	return report, nil
}
