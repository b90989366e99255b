package main

// metricDef declares one metric the benchmark emits. The two tables below
// are the single source of the names, units and directions; the root
// BENCHMARK.json repeats them for the pipeline and TestManifestMatches
// keeps the two in step.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: share of the parent's median it may worsen by
}

// endToEnd is what a user of regcast sees, the same seven on every
// workload. The three timings carry the widest bound the pipeline allows:
// on the shared two-core box they were written on, best-of-S of one run
// still moves 6-26% between runs (README.md, "Noise"). The other four are
// exact for one seed; rounds_mean and tx_per_node_mean are the paper's two
// cost quantities (O(log n) rounds, O(log log n) transmissions per node)
// and their bound is the tolerance for a documented reseed.
var endToEnd = []metricDef{
	{"wall_s", "s", "lower", 0.25},
	{"setup_s", "s", "lower", 0.25},
	{"events_per_s", "events/s", "higher", 0.25},
	{"alloc_mb", "MiB", "lower", 0.02},
	{"rounds_mean", "rounds", "lower", 0.05},
	{"tx_per_node_mean", "tx/node", "lower", 0.02},
	{"coverage", "ratio", "higher", 0},
}

// perLayer is what the traced run adds: one group per module, each number
// taken in this package around a call into the module's exported
// functions. A workload that never enters a layer reports 0 for that
// layer's span metrics; the standalone probes (xrand.*, *_neighbor_ns,
// sched.*, overlay.*, stats.*, host.*) run on every workload.
var perLayer = []metricDef{
	{"graph.gen_s", "s", "lower", 0},
	{"graph.gen_ns_per_edge", "ns", "lower", 0},
	{"graph.validate_s", "s", "lower", 0},
	{"graph.gen_alloc_mb", "MiB", "lower", 0},
	{"graph.csr_neighbor_ns", "ns", "lower", 0},
	{"graph.stream_new_s", "s", "lower", 0},
	{"graph.stream_neighbor_ns", "ns", "lower", 0},
	{"xrand.uint64_ns", "ns", "lower", 0},
	{"xrand.intn_ns", "ns", "lower", 0},
	{"xrand.distinctk_ns", "ns", "lower", 0},
	{"xrand.pairdraw_ns", "ns", "lower", 0},
	{"phonecall.newengine_s", "s", "lower", 0},
	{"phonecall.run_s", "s", "lower", 0},
	{"phonecall.ns_per_dial", "ns", "lower", 0},
	{"phonecall.run_alloc_mb", "MiB", "lower", 0},
	{"phonecall.ref_ns_per_dial", "ns", "lower", 0},
	{"phonecall.fastpath_ratio", "ratio", "higher", 0},
	{"phonecall.w1_run_s", "s", "lower", 0},
	{"phonecall.w2_run_s", "s", "lower", 0},
	{"phonecall.par_speedup_w2", "ratio", "higher", 0},
	{"phonecall.rounds", "count", "lower", 0},
	{"phonecall.dials", "count", "lower", 0},
	{"phonecall.transmissions", "count", "lower", 0},
	{"sched.pool_dispatch_us", "us", "lower", 0},
	{"overlay.new_s", "s", "lower", 0},
	{"overlay.step_us", "us", "lower", 0},
	{"population.run_s", "s", "lower", 0},
	{"population.ns_per_interaction", "ns", "lower", 0},
	{"population.steps", "count", "lower", 0},
	{"population.interactions", "count", "lower", 0},
	{"population.measure_end", "count", "lower", 0},
	{"population.ref_ns_per_interaction", "ns", "lower", 0},
	{"population.fastpath_ratio", "ratio", "higher", 0},
	{"population.w2_run_s", "s", "lower", 0},
	{"stats.add_ns", "ns", "lower", 0},
	{"batch.overhead_frac", "ratio", "lower", 0},
	{"batch.repworkers2_speedup", "ratio", "higher", 0},
	{"facade.run_overhead_frac", "ratio", "lower", 0},
	{"share.graph_gen", "ratio", "lower", 0},
	{"share.graph_validate", "ratio", "lower", 0},
	{"share.phonecall_newengine", "ratio", "lower", 0},
	{"share.phonecall_run", "ratio", "lower", 0},
	{"share.overlay_new", "ratio", "lower", 0},
	{"share.population_run", "ratio", "lower", 0},
	{"share.facade", "ratio", "lower", 0},
	{"host.probe_compute_ns", "ns", "lower", 0},
	{"host.probe_memory_ns", "ns", "lower", 0},
	{"trace.overhead_frac", "ratio", "lower", 0},
}

// metricValue is one emitted number with its unit.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet collects the values of one run, keyed by metric name.
type metricSet map[string]float64

// emit renders the values of defs as the result line's metrics object.
// Every declared metric is present; one the run did not touch reads 0.
func (m metricSet) emit(defs []metricDef) map[string]metricValue {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		out[d.Name] = metricValue{Value: m[d.Name], Unit: d.Unit}
	}
	return out
}
