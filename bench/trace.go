package main

import (
	"encoding/json"
	"os"
	"time"
)

// span is one timed call into a layer. Parent is the index of the span
// that was open when this one began (-1 for a root); spans of one sample
// share Sample.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Sample int    `json:"sample"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so the untraced run executes the same code with tracing off.
// It is used from one goroutine only.
type tracer struct {
	origin time.Time
	spans  []span
	open   []int // stack of open span indices
	sample int
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// begin opens a span under the currently open one and returns its index.
func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	parent := -1
	if len(t.open) > 0 {
		parent = t.open[len(t.open)-1]
	}
	t.spans = append(t.spans, span{Name: name, Parent: parent, Sample: t.sample})
	id := len(t.spans) - 1
	t.open = append(t.open, id)
	t.spans[id].Start = int64(time.Since(t.origin))
	return id
}

// end closes span id, which must be the innermost open span.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	t.spans[id].End = int64(time.Since(t.origin))
	t.open = t.open[:len(t.open)-1]
}

// selfTimes returns, per span name, the summed self time: each span's
// duration minus the part its direct children cover.
func (t *tracer) selfTimes() map[string]time.Duration {
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	self := make(map[string]time.Duration)
	for i, s := range t.spans {
		self[s.Name] += time.Duration(s.End - s.Start - child[i])
	}
	return self
}

// durations returns the duration of every span called name, in order.
func (t *tracer) durations(name string) []time.Duration {
	var out []time.Duration
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, time.Duration(s.End-s.Start))
		}
	}
	return out
}

// write dumps the spans as one JSON array.
func (t *tracer) write(path string) error {
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
