package regcast

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
)

// ReportSchema is the versioned identifier stamped into every Report;
// bump the suffix when the serialised shape changes incompatibly, so
// downstream consumers (CI artifacts, perf-trajectory tooling) can detect
// what they are parsing.
const ReportSchema = "regcast.bench/v1"

// Param is one axis setting of a report cell.
type Param struct {
	Axis  string `json:"axis"`
	Value string `json:"value"`
}

// CellReport is the serialised aggregate of one grid cell's batch.
type CellReport struct {
	Index         int       `json:"index"`
	Label         string    `json:"label"`
	Params        []Param   `json:"params,omitempty"`
	Replications  int       `json:"replications"`
	Completed     int       `json:"completed"`
	CompletedFrac float64   `json:"completed_frac"`
	Rounds        Aggregate `json:"rounds"`
	Transmissions Aggregate `json:"transmissions"`
	TxPerNode     Aggregate `json:"tx_per_node"`
	InformedFrac  Aggregate `json:"informed_frac"`
	// WallClockMS is the cell's wall-clock time; present only when the
	// sweep ran with Timing (it is machine-dependent, so deterministic
	// reports omit it).
	WallClockMS float64 `json:"wall_clock_ms,omitempty"`
	// AllocBPerOp is the cell's heap allocation per replication
	// (runtime.MemStats TotalAlloc delta over the cell, divided by its
	// replication count — topology construction included); present only
	// when the sweep ran with MemStats. Like wall-clock it is
	// environment-dependent (GC timing, pool width), so deterministic
	// reports omit it; it is the bench trajectory's memory-wall metric.
	AllocBPerOp uint64 `json:"alloc_b_per_op,omitempty"`
	// HeapSysBytes is the heap the process held from the OS after the
	// cell ran (runtime.MemStats HeapSys); present only with MemStats.
	HeapSysBytes uint64 `json:"heap_sys_bytes,omitempty"`
}

// Report is the stable, machine-readable output of a Sweep: one cell per
// grid point, in grid order. Serialisation is deterministic — fixed field
// order, no timestamps, no map iteration — so for a fixed seed and grid
// (and Timing off) the bytes are identical across runs and across
// ReplicationWorkers values.
type Report struct {
	Schema string       `json:"schema"`
	Name   string       `json:"name"`
	Seed   uint64       `json:"seed"`
	Cells  []CellReport `json:"cells"`
}

// WriteJSON serialises the report as indented JSON with a trailing
// newline.
func (r *Report) WriteJSON(w io.Writer) error {
	buf, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	buf = append(buf, '\n')
	_, err = w.Write(buf)
	return err
}

// csvHeader is the fixed column set of the CSV form; kept in lockstep with
// writeCSVRow.
var csvHeader = []string{
	"index", "label", "replications", "completed", "completed_frac",
	"rounds_mean", "rounds_stddev", "rounds_p10", "rounds_p50", "rounds_p90",
	"transmissions_mean", "transmissions_stddev", "transmissions_p50",
	"tx_per_node_mean", "tx_per_node_p50",
	"informed_frac_mean", "informed_frac_min",
	"wall_clock_ms", "alloc_b_per_op", "heap_sys_bytes",
}

// WriteCSV serialises the report as one CSV row per cell with a fixed
// header — the flat form for spreadsheets and plotting scripts; the JSON
// form carries the full aggregates.
func (r *Report) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(csvHeader); err != nil {
		return err
	}
	for _, c := range r.Cells {
		row := []string{
			strconv.Itoa(c.Index),
			c.Label,
			strconv.Itoa(c.Replications),
			strconv.Itoa(c.Completed),
			fnum(c.CompletedFrac),
			fnum(c.Rounds.Mean), fnum(c.Rounds.Stddev), fnum(c.Rounds.P10), fnum(c.Rounds.P50), fnum(c.Rounds.P90),
			fnum(c.Transmissions.Mean), fnum(c.Transmissions.Stddev), fnum(c.Transmissions.P50),
			fnum(c.TxPerNode.Mean), fnum(c.TxPerNode.P50),
			fnum(c.InformedFrac.Mean), fnum(c.InformedFrac.Min),
			fnum(c.WallClockMS),
			strconv.FormatUint(c.AllocBPerOp, 10),
			strconv.FormatUint(c.HeapSysBytes, 10),
		}
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// fnum renders a float with Go's shortest round-trip formatting — the
// same deterministic representation encoding/json uses.
func fnum(x float64) string {
	return strconv.FormatFloat(x, 'g', -1, 64)
}

// String returns a short human-readable summary (cells and name), not the
// serialised form; use WriteJSON/WriteCSV for machine consumption.
func (r *Report) String() string {
	return fmt.Sprintf("regcast.Report{%s: %d cells, seed %d}", r.Name, len(r.Cells), r.Seed)
}
