package phonecall_test

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"regcast/internal/baseline"
	"regcast/internal/core"
	"regcast/internal/phonecall"
	"regcast/internal/xrand"
)

// strideOf is a CSR view with its offsets withheld: the engine reads it as
// a fixed-stride view (row v is adj[v·s : (v+1)·s]). It forwards the
// wrapped topology's graph.Symmetric declaration.
type strideOf struct{ phonecall.CSRViewer }

func (s strideOf) Symmetric() bool { return declaresSymmetric(s.CSRViewer) }

func (s strideOf) CSRView() (offsets, adj []int32, alive []uint64, epoch uint64) {
	_, adj, alive, epoch = s.CSRViewer.CSRView()
	return nil, adj, alive, epoch
}

// offsetsOf is a fixed-stride CSR view with its offsets spelled out (v·s),
// read as any CSR view is; a Stepper stays one.
type offsetsOf struct {
	phonecall.CSRViewer
	off []int32
}

func withOffsets(v phonecall.CSRViewer) phonecall.Topology {
	_, adj, _, _ := v.CSRView()
	n := v.NumNodes()
	s := len(adj) / n
	o := offsetsOf{CSRViewer: v, off: make([]int32, n+1)}
	for i := range o.off {
		o.off[i] = int32(i * s)
	}
	if st, ok := v.(phonecall.Stepper); ok {
		return struct {
			offsetsOf
			phonecall.Stepper
		}{o, st}
	}
	return o
}

func (o offsetsOf) CSRView() (offsets, adj []int32, alive []uint64, epoch uint64) {
	_, adj, alive, epoch = o.CSRViewer.CSRView()
	return o.off, adj, alive, epoch
}

// TestStrideViewMatchesOffsets: a fixed-stride view and the same rows
// behind an offsets array are one topology to the engine. A regular Static
// graph with its offsets withheld and the churn overlay (whose own view
// has no offsets) with v·d spelled out must give the same Result and
// Observer sequence at every Workers value, and on the fully-alive stride
// view sparse-frontier rounds must engage as often as on the offsets view.
func TestStrideViewMatchesOffsets(t *testing.T) {
	const n, d = 2000, 16
	g := mustRegular(t, n, d, 41)
	fourChoice, err := core.New(n, d)
	if err != nil {
		t.Fatal(err)
	}
	push, err := baseline.NewPush(n, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, proto := range []phonecall.Protocol{fourChoice, push} {
		for _, workers := range []int{0, 1, 4} {
			label := fmt.Sprintf("static %s workers=%d", proto.Name(), workers)
			cfg := phonecall.Config{Protocol: proto, Workers: workers}
			want, wantLog, wantFrontier := frontierRun(t, cfg, phonecall.NewStatic(g), 11)
			got, gotLog, frontier := frontierRun(t, cfg, strideOf{phonecall.NewStatic(g)}, 11)
			sameResult(t, label, want, got)
			if !reflect.DeepEqual(gotLog, wantLog) {
				t.Fatalf("%s: observer sequences differ", label)
			}
			if frontier == 0 || frontier != wantFrontier {
				t.Errorf("%s: %d sparse-frontier rounds on the stride view, %d on the offsets view; want the same, at least one",
					label, frontier, wantFrontier)
			}
		}
	}

	const on, od = 512, 8
	overlayFourChoice, err := core.New(on, od)
	if err != nil {
		t.Fatal(err)
	}
	alg1, err := core.NewAlgorithm1(on)
	if err != nil {
		t.Fatal(err)
	}
	cell := churnGolden{joinProb: 0.03, leaveProb: 0.03, mixSteps: 5}
	for _, proto := range []phonecall.Protocol{overlayFourChoice, alg1} {
		for _, workers := range []int{0, 1, 4} {
			label := fmt.Sprintf("overlay %s workers=%d", proto.Name(), workers)
			cfg := phonecall.Config{Protocol: proto, Workers: workers, Source: 3}
			stride := buildChurnTopo(t, on, od, cell, 23)
			got, gotLog := runSeeded(t, cfg, stride, 12)
			want, wantLog := runSeeded(t, cfg, withOffsets(buildChurnTopo(t, on, od, cell, 23)), 12)
			sameResult(t, label, want, got)
			if !reflect.DeepEqual(gotLog, wantLog) {
				t.Fatalf("%s: observer sequences differ", label)
			}
			if stride.ch.Joins == 0 || stride.ch.Leaves == 0 {
				t.Fatalf("%s: %d joins, %d leaves: the run did not churn", label, stride.ch.Joins, stride.ch.Leaves)
			}
		}
	}
}

// TestNewEngineRefusesRaggedStride: a view with nil offsets whose
// adjacency does not split into NumNodes equal rows is refused, with an
// error that names the rule, rather than read with its tail cut off.
func TestNewEngineRefusesRaggedStride(t *testing.T) {
	g := mustRegular(t, 100, 4, 3)
	push, err := baseline.NewPush(100, 1)
	if err != nil {
		t.Fatal(err)
	}
	_, err = phonecall.NewEngine(phonecall.Config{
		Topology: raggedStride{strideOf{phonecall.NewStatic(g)}},
		Protocol: push,
		RNG:      xrand.New(1),
	})
	if err == nil || !strings.Contains(err.Error(), "nil offsets") || !strings.Contains(err.Error(), "multiple of NumNodes") {
		t.Fatalf("NewEngine on a 399-entry stride view over 100 nodes: err = %v, want the fixed-stride rule", err)
	}
}

// raggedStride drops the last adjacency entry of a stride view.
type raggedStride struct{ strideOf }

func (r raggedStride) CSRView() (offsets, adj []int32, alive []uint64, epoch uint64) {
	offsets, adj, alive, epoch = r.strideOf.CSRView()
	return offsets, adj[:len(adj)-1], alive, epoch
}

// TestStaticDialBudgetMatchesScan pins Static's budget from its CSR
// offsets against the generic Alive/Degree scan, on regular and irregular
// graphs (isolated and low-degree ids) and for k below, at and above the
// degrees.
func TestStaticDialBudgetMatchesScan(t *testing.T) {
	for _, tc := range []struct {
		name string
		g    phonecall.Static
	}{
		{"regular", phonecall.NewStatic(mustRegular(t, 300, 6, 5))},
		{"irregular", phonecall.NewStatic(sparseGraph(t))},
		{"isolated", phonecall.NewStatic(withIsolated(t, mustRegular(t, 64, 4, 6), 5))},
	} {
		for _, k := range []int{1, 2, 4, 6, 9} {
			scan := phonecall.DialBudget(struct{ phonecall.Topology }{tc.g}, k)
			if got := tc.g.DialBudget(k); got != scan {
				t.Errorf("%s: DialBudget(%d) = %d, the scan says %d", tc.name, k, got, scan)
			}
		}
	}
}
