package main

// The metric and workload tables. BENCHMARK.json at the repository
// root states the same names, units, directions and bounds for the
// driver; TestContractMatchesTables keeps the two from drifting.

// metricDef names one reported number.
type metricDef struct {
	Name   string
	Unit   string
	Higher bool    // true when a larger value is better
	Bound  float64 // end-to-end only: allowed worsening of the median, as a share
}

// workloadDef names one workload and records why it exists.
type workloadDef struct {
	Name string
	Why  string
}

var workloadDefs = []workloadDef{
	{"chain_heavy", "real stage work: stage functions are over 80% of CPU, so boundary speed-ups should not move it while scheduling quality does"},
	{"chain_light", "8-iteration kernels: per-item boundary cost (limiter, inject-grab-pop, reorder sink, drainer hop) is nearly all the work"},
	{"chain_batched", "chain_light under WithBatch(64): the same layers used through the slab path, so a gain for one path that costs the other shows"},
	{"open_poisson", "open loop at a quarter of capacity with a sleeping generator: park/unpark and wake-up latency, not throughput"},
	{"live_spike", "the paper's loop on the live substrate: liveadapt + monitor + SetReplicas recover from a 0.6 load spike on sleep-occupancy stages"},
	{"sim_spike", "the paper's headline experiment in virtual time: image pipeline on 8 heterogeneous nodes, 0.85 load step, static vs reactive"},
	{"cluster_stream", "the cluster rung: a Poisson job stream on 16 nodes where sched/model and the arbiter dominate and exec/sim are a minority"},
}

// endToEnd is what a caller of the system sees. Every workload reports
// every one of them (the driver's contract), so only quantities that
// exist, and are never zero, on all seven are here; the rest of the
// issue's end-to-end list is reported under the same names in
// perLayer.
var endToEnd = []metricDef{
	{"items_per_s", "items/s", true, 0.25},
	{"sojourn_p50_us", "us", false, 0.25},
	{"sojourn_p95_us", "us", false, 0.25},
	{"setup_s", "s", false, 0.25},
}

// perLayer is the traced run's budget, the counters around the untraced
// reps, and the isolation probes. A metric a workload does not exercise
// reads 0 there.
var perLayer = []metricDef{
	// Per-item time budget from the traced reps; the seven sum to
	// transit by construction.
	{"gridpipe.ingress_wait_ns", "ns", false, 0},
	{"stagefn.busy_ns", "ns", false, 0},
	{"pipeline.hop0_ns", "ns", false, 0},
	{"pipeline.hop1_ns", "ns", false, 0},
	{"pipeline.hop2_ns", "ns", false, 0},
	{"pipeline.hop3_ns", "ns", false, 0},
	{"pipeline.egress_ns", "ns", false, 0},
	{"trace.overhead_share", "share", false, 0},

	// steal.Default() counter deltas over the untraced reps, and
	// probes on a private executor.
	{"steal.injects_per_item", "1/item", false, 0},
	{"steal.pops_per_item", "1/item", false, 0},
	{"steal.grabbed_per_item", "1/item", false, 0},
	{"steal.steals_per_item", "1/item", false, 0},
	{"steal.parks_per_item", "1/item", false, 0},
	{"steal.spills", "count", false, 0},
	{"steal.submit_run_ns", "ns", false, 0},
	{"steal.deque_ns_per_op", "ns", false, 0},

	{"pipeline.boundary_ns_per_item", "ns", false, 0},
	{"pipeline.boundary_b1_ns_per_item", "ns", false, 0},
	{"pipeline.boundary_b64_ns_per_item", "ns", false, 0},
	{"pipeline.b64_trickle_p99_us", "us", false, 0},
	{"farm.unordered_ns_per_item", "ns", false, 0},
	{"farm.ordered_ns_per_item", "ns", false, 0},
	{"ring.reorder_ns_per_op", "ns", false, 0},
	{"ring.fifo_ns_per_op", "ns", false, 0},
	{"conc.limiter_ns_per_op", "ns", false, 0},
	{"conc.meter_ns_per_op", "ns", false, 0},

	{"runtime.cpu_util", "share", true, 0},
	{"runtime.cpu_ns_per_item", "ns", false, 0},
	{"runtime.bytes_per_item", "B", false, 0},
	{"runtime.gc_cycles", "count", false, 0},
	{"runtime.goroutines_after", "count", false, 0},
	{"baseline.serial_items_per_s", "items/s", true, 0},
	{"runtime.efficiency", "share", true, 0},
	{"allocs_per_item", "1/item", false, 0},
	{"failed_share", "share", false, 0},
	{"sojourn_p99_us", "us", false, 0},

	// open_poisson.
	{"transit_p50_us", "us", false, 0},
	{"transit_p99_us", "us", false, 0},
	{"sojourn_p999_us", "us", false, 0},
	{"slo_miss_share", "share", false, 0},
	{"gen.late_p50_us", "us", false, 0},
	{"gen.late_p99_us", "us", false, 0},
	{"open.r60k.sojourn_p99_us", "us", false, 0},
	{"open.r60k.delivered_share", "share", true, 0},

	// live_spike.
	{"items_per_s_under_spike", "items/s", true, 0},
	{"liveadapt.resizes", "count", false, 0},
	{"liveadapt.first_resize_s", "s", false, 0},
	{"liveadapt.final_workers", "count", false, 0},

	// sim_spike.
	{"adaptive_speedup", "ratio", true, 0},
	{"sim.events", "count", false, 0},
	{"sim.events_per_s", "1/s", true, 0},
	{"sim.calendar_ns_per_event", "ns", false, 0},
	{"exec.events_per_item", "1/item", false, 0},
	{"exec.static_ns_per_item", "ns", false, 0},
	{"simadapt.wall_ratio", "ratio", false, 0},
	{"simadapt.remaps", "count", false, 0},
	{"simadapt.migrations", "count", false, 0},
	{"exec.makespan_static_s", "s", false, 0},
	{"exec.makespan_reactive_s", "s", false, 0},

	// cluster_stream.
	{"jobs_per_s", "1/s", true, 0},
	{"mean_wait_s", "s", false, 0},
	{"cluster.arbitrations", "count", false, 0},
	{"cluster.divider_searches", "count", false, 0},
	{"cluster.divider_cached", "count", true, 0},
	{"cluster.ns_per_arbitration", "ns", false, 0},
	{"cluster.makespan_s", "s", false, 0},
	{"cluster.jain", "share", true, 0},
	{"sched.localsearch_ns", "ns", false, 0},
	{"sched.improve_replication_ns", "ns", false, 0},
	{"sched.exhaustive_t4_ns", "ns", false, 0},
	{"sched.exhaustive_t4_evaluated", "count", false, 0},
	{"model.predict_ns", "ns", false, 0},
	{"workload.arrival_ns_per_draw", "ns", false, 0},
	{"workload.generate_trace_ns_per_job", "ns", false, 0},
	{"workload.trace_roundtrip_ns_per_job", "ns", false, 0},
}

// measurement is one run of one workload: the numbers plus the
// correctness ledger the driver reads.
type measurement struct {
	Attempted int64
	Failed    int64
	Values    map[string]float64
	// Notes carries the sample counts, rep extremes and chosen
	// percentiles the human-readable report prints beside a value.
	Notes map[string]string
}

func newMeasurement() *measurement {
	return &measurement{Values: map[string]float64{}, Notes: map[string]string{}}
}

func (m *measurement) set(name string, v float64) { m.Values[name] = v }

func (m *measurement) note(name, text string) { m.Notes[name] = text }

func (m *measurement) correct() bool { return m.Failed == 0 && m.Attempted > 0 }
