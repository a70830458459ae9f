package benchkit

// This file is the benchmark's vocabulary: the six workloads, the nine
// end-to-end metrics with their bounds, and every per-layer metric with its
// source and the end-to-end metric it should move. BENCHMARK.json at the
// root of the repo carries the same names (a test holds the two equal);
// every later "faster" or "no regression" claim names one metric and one
// workload from these lists.

// Source says where a per-layer metric comes from.
type Source string

const (
	// Counter is a delta, over the measured window, of a counter the
	// program already exports (Server.Metrics, FleetStats, GPUTraffic,
	// EnclaveStats, ResilStats, TrainPhases).
	Counter Source = "C"
	// Probe is a harness-timed direct call into one layer's public
	// functions at the workload's own geometry, made after the window.
	Probe Source = "P"
	// Runtime is a Go runtime signal.
	Runtime Source = "R"
	// Generator is a measurement of the load generator itself.
	Generator Source = "G"
)

// Metric describes one reported number.
type Metric struct {
	Name   string
	Unit   string
	Better string // "higher" or "lower"
	// Bound is, for an end-to-end metric, the share of the base median by
	// which it may get worse before -compare calls it a regression.
	Bound float64
	// Source and Moves are set for per-layer metrics: where the number
	// comes from, and which end-to-end metric on which workload it is
	// expected to move.
	Source Source
	Moves  string
}

// EndToEnd lists the metrics a user of the system would see. Every
// workload emits all nine (the builder's contract measures each metric on
// each workload and asks for values that are never 0), which is why the
// failure shares of the issue appear here as their complements: ok_frac is
// 1 − fail_frac and slo_met_frac is 1 − slo_miss_frac. A bound is one value
// per metric, so it is the widest any of the six workloads needs on the
// sizing host, whose own noise (README.md, "Measured A/A spread") is why they
// are wider than the 5–10 % the issue hoped for.
var EndToEnd = []Metric{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "rows_per_s", Unit: "1/s", Better: "higher", Bound: 0.20},
	{Name: "latency_p50_ms", Unit: "ms", Better: "lower", Bound: 0.20},
	{Name: "latency_p90_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "cpu_ms_per_row", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "coding_overhead_x", Unit: "x", Better: "lower", Bound: 0.25},
	{Name: "slo_met_frac", Unit: "frac", Better: "higher", Bound: 0.02},
	{Name: "ok_frac", Unit: "frac", Better: "higher", Bound: 0.01},
	{Name: "class_match_frac", Unit: "frac", Better: "higher", Bound: 0.005},
}

const (
	computeMoves = "rows_per_s, cpu_ms_per_row, coding_overhead_x on infer_compute/train_compute; only cpu_ms_per_row on the 1 ms workloads"
	flightMoves  = "rows_per_s, latency_p50_ms on infer_flight; rows_per_s on train_flight"
)

// PerLayer lists the layer metrics, in the order the ladder prints them.
var PerLayer = []Metric{
	{Name: "field.combine_ns_per_elem", Unit: "ns", Better: "lower", Source: Probe, Moves: "masking.* → " + computeMoves},
	{Name: "field.combine2_ns_per_elem", Unit: "ns", Better: "lower", Source: Probe, Moves: "masking.* → " + computeMoves},
	{Name: "field.lazy_axpy_ns_per_elem", Unit: "ns", Better: "lower", Source: Probe, Moves: "nn.field_forward_us → " + computeMoves},
	{Name: "field.randvec_ns_per_elem", Unit: "ns", Better: "lower", Source: Probe, Moves: "sched.encode_us_per_batch → " + computeMoves},

	{Name: "quant.quantize_ns_per_elem", Unit: "ns", Better: "lower", Source: Probe, Moves: "sched.encode_us_per_batch → " + computeMoves},
	{Name: "quant.restore_ns_per_elem", Unit: "ns", Better: "lower", Source: Probe, Moves: "sched.decode_us_per_batch → " + computeMoves},

	{Name: "masking.encode_us", Unit: "us", Better: "lower", Source: Probe, Moves: computeMoves},
	{Name: "masking.decode_fwd_us", Unit: "us", Better: "lower", Source: Probe, Moves: computeMoves},
	{Name: "masking.decode_fwd_subset_us", Unit: "us", Better: "lower", Source: Probe, Moves: "latency_p90_ms on infer_open_low/infer_open_high"},
	{Name: "masking.verify_fwd_us", Unit: "us", Better: "lower", Source: Probe, Moves: computeMoves},
	{Name: "masking.decode_bwd_us", Unit: "us", Better: "lower", Source: Probe, Moves: "rows_per_s, coding_overhead_x on train_compute"},
	{Name: "masking.noisepool_get_ns", Unit: "ns", Better: "lower", Source: Probe, Moves: "cpu_ms_per_row on infer_flight, infer_open_*, train_flight"},
	{Name: "masking.noisepool_hit_rate", Unit: "frac", Better: "higher", Source: Counter, Moves: "a rate < 1 → latency_p50_ms on infer_flight"},

	{Name: "tensor.matmul_us", Unit: "us", Better: "lower", Source: Probe, Moves: "nn.plain_* (the denominators of coding_overhead_x)"},
	{Name: "nn.field_forward_us", Unit: "us", Better: "lower", Source: Probe, Moves: "the biggest share of sched.dispatch_busy_frac → rows_per_s on infer_compute"},
	{Name: "nn.grad_weights_field_us", Unit: "us", Better: "lower", Source: Probe, Moves: "rows_per_s on train_compute"},
	{Name: "nn.plain_forward_us", Unit: "us", Better: "lower", Source: Probe, Moves: "denominator of coding_overhead_x on infer_*"},
	{Name: "nn.plain_step_us", Unit: "us", Better: "lower", Source: Probe, Moves: "denominator of coding_overhead_x on train_*"},

	{Name: "enclave.seal_us_per_kb", Unit: "us", Better: "lower", Source: Probe, Moves: "rows_per_s on train_compute; no infer_* workload"},
	{Name: "enclave.unseal_us_per_kb", Unit: "us", Better: "lower", Source: Probe, Moves: "rows_per_s on train_compute; no infer_* workload"},
	{Name: "enclave.seal_ops_per_step", Unit: "count", Better: "lower", Source: Counter, Moves: "rows_per_s on train_compute (exact)"},
	{Name: "enclave.sealed_bytes_per_step", Unit: "bytes", Better: "lower", Source: Counter, Moves: "rows_per_s on train_compute (exact)"},
	{Name: "enclave.peak_usage_mb", Unit: "MB", Better: "lower", Source: Counter, Moves: "none; the SGX budget the deployment needs (exact)"},

	{Name: "gpu.forward_all_us", Unit: "us", Better: "lower", Source: Probe, Moves: flightMoves + "; small on infer_compute"},
	{Name: "gpu.backward_all_us", Unit: "us", Better: "lower", Source: Probe, Moves: "rows_per_s on train_flight"},
	{Name: "gpu.block_layer_us", Unit: "us", Better: "lower", Source: Probe, Moves: flightMoves},
	{Name: "gpu.jobs_per_batch", Unit: "count", Better: "lower", Source: Counter, Moves: flightMoves + " (exact)"},
	{Name: "gpu.bytes_in_per_row", Unit: "bytes", Better: "lower", Source: Counter, Moves: "none on a CPU host; computed from the counters, not measured on a wire (exact)"},
	{Name: "gpu.bytes_out_per_row", Unit: "bytes", Better: "lower", Source: Counter, Moves: "none on a CPU host; computed from the counters, not measured on a wire (exact)"},

	{Name: "fleet.acquire_release_us", Unit: "us", Better: "lower", Source: Probe, Moves: "latency_p90_ms on infer_open_high; rows_per_s on infer_flight/train_flight; infer_compute by < 1 %"},
	{Name: "fleet.quorum_forward_us", Unit: "us", Better: "lower", Source: Probe, Moves: "latency_p50_ms on infer_open_*"},
	{Name: "fleet.straggler_events_per_batch", Unit: "count", Better: "lower", Source: Counter, Moves: "≈ 1 per quorum flight under uniform latency is expected, not a fault"},
	{Name: "fleet.speculations", Unit: "count", Better: "lower", Source: Counter, Moves: "cpu_ms_per_row on infer_open_*"},
	{Name: "fleet.quarantine_events", Unit: "count", Better: "lower", Source: Counter, Moves: "ok_frac; zero on every clean workload"},
	{Name: "fleet.peak_overlap", Unit: "count", Better: "higher", Source: Counter, Moves: "rows_per_s on infer_flight"},
	{Name: "fleet.tenant_a_share", Unit: "frac", Better: "higher", Source: Counter, Moves: "latency_p90_ms on infer_open_high (device-time share against the 0.75 weight)"},

	{Name: "sched.encode_busy_frac", Unit: "frac", Better: "lower", Source: Counter, Moves: computeMoves},
	{Name: "sched.dispatch_busy_frac", Unit: "frac", Better: "lower", Source: Counter, Moves: computeMoves},
	{Name: "sched.decode_busy_frac", Unit: "frac", Better: "lower", Source: Counter, Moves: computeMoves},
	{Name: "sched.overlap_ratio", Unit: "x", Better: "higher", Source: Counter, Moves: "rows_per_s on infer_flight/train_flight"},
	{Name: "sched.encode_us_per_batch", Unit: "us", Better: "lower", Source: Counter, Moves: computeMoves},
	{Name: "sched.decode_us_per_batch", Unit: "us", Better: "lower", Source: Counter, Moves: computeMoves},
	{Name: "sched.dispatch_us_per_flight", Unit: "us", Better: "lower", Source: Counter, Moves: flightMoves},
	{Name: "sched.flights_per_batch", Unit: "count", Better: "lower", Source: Counter, Moves: "rows_per_s on infer_flight/train_flight, 1 ms each (exact)"},
	{Name: "sched.layers_per_flight", Unit: "count", Better: "higher", Source: Counter, Moves: "rows_per_s on infer_flight (exact)"},
	{Name: "sched.forward_us", Unit: "us", Better: "lower", Source: Probe, Moves: "rows_per_s on infer_compute"},
	{Name: "sched.forward_fused_us", Unit: "us", Better: "lower", Source: Probe, Moves: "rows_per_s on infer_flight"},
	{Name: "sched.pipeline_depth1_us", Unit: "us", Better: "lower", Source: Probe, Moves: "against sched.forward_us: ROADMAP item 3's ≤ 2 % budget"},
	{Name: "sched.train_step_us", Unit: "us", Better: "lower", Source: Probe, Moves: "rows_per_s on train_compute"},

	{Name: "serve.occupancy", Unit: "frac", Better: "higher", Source: Counter, Moves: "↑ → cpu_ms_per_row ↓ on infer_open_*, but latency_p50_ms ↑ on infer_open_low if bought with waiting; 1.0 on closed loops"},
	{Name: "serve.pad_row_frac", Unit: "frac", Better: "lower", Source: Counter, Moves: "cpu_ms_per_row on infer_open_*"},
	{Name: "serve.batches_per_s", Unit: "1/s", Better: "higher", Source: Counter, Moves: "rows_per_s"},
	{Name: "serve.queue_depth_max", Unit: "count", Better: "lower", Source: Counter, Moves: "latency_p90_ms, slo_met_frac on infer_open_high"},
	{Name: "serve.continuous_admits", Unit: "count", Better: "higher", Source: Counter, Moves: "none; no workload enables continuous batching"},
	{Name: "serve.p99_ms_raw", Unit: "ms", Better: "lower", Source: Counter, Moves: "the server's own reading of loadgen.latency_p99_ms"},
	{Name: "serve.integrity_failed", Unit: "count", Better: "lower", Source: Counter, Moves: "ok_frac; zero on every clean workload"},

	{Name: "resil.retries", Unit: "count", Better: "lower", Source: Counter, Moves: "slo_met_frac, ok_frac on infer_open_*; zero elsewhere"},
	{Name: "resil.deadline_expired", Unit: "count", Better: "lower", Source: Counter, Moves: "slo_met_frac, ok_frac on infer_open_*; zero elsewhere"},
	{Name: "resil.shed", Unit: "count", Better: "lower", Source: Counter, Moves: "slo_met_frac, ok_frac on infer_open_*; zero elsewhere"},

	{Name: "obs.span_ns", Unit: "ns", Better: "lower", Source: Probe, Moves: "cpu_ms_per_row on infer_open_* (obs is on there)"},
	{Name: "obs.histogram_observe_ns", Unit: "ns", Better: "lower", Source: Probe, Moves: "cpu_ms_per_row on infer_open_*"},
	{Name: "obs.allocs_per_observe", Unit: "count", Better: "lower", Source: Probe, Moves: "runtime.allocs_per_row on infer_open_*"},
	{Name: "obs.attached_overhead_frac", Unit: "frac", Better: "lower", Source: Probe, Moves: "rows_per_s on infer_compute only through the disabled-path cost"},

	{Name: "client.seal_open_us", Unit: "us", Better: "lower", Source: Probe, Moves: "none of the six workloads; baseline for a later sealed-transport workload"},
	{Name: "slalom.forward_us", Unit: "us", Better: "lower", Source: Probe, Moves: "nothing; the paper's Fig. 6a comparison point beside nn.plain_forward_us"},

	{Name: "runtime.allocs_per_row", Unit: "count", Better: "lower", Source: Runtime, Moves: "cpu_ms_per_row everywhere; latency_p90_ms on infer_open_high"},
	{Name: "runtime.alloc_bytes_per_row", Unit: "bytes", Better: "lower", Source: Runtime, Moves: "cpu_ms_per_row everywhere"},
	{Name: "runtime.gc_pause_total_ms", Unit: "ms", Better: "lower", Source: Runtime, Moves: "latency_p90_ms"},
	{Name: "runtime.heap_peak_mb", Unit: "MB", Better: "lower", Source: Runtime, Moves: "none; memory beside setup_s so moved work shows"},
	{Name: "runtime.sched_latency_p99_us", Unit: "us", Better: "lower", Source: Runtime, Moves: "latency_p90_ms"},

	{Name: "loadgen.sent", Unit: "count", Better: "higher", Source: Generator, Moves: "the sample count behind every end-to-end metric"},
	{Name: "loadgen.latency_p99_ms", Unit: "ms", Better: "lower", Source: Generator, Moves: "the tail beyond latency_p90_ms, whole window, as measured; two host states 40 % apart keep it off the end-to-end list"},
	{Name: "loadgen.late_p99_ms", Unit: "ms", Better: "lower", Source: Generator, Moves: "> 1 ms marks the run generator_unreliable"},
	{Name: "loadgen.late_max_ms", Unit: "ms", Better: "lower", Source: Generator, Moves: "latency_p90_ms on infer_open_* when the generator stalls"},
	{Name: "loadgen.trace_overhead_frac", Unit: "frac", Better: "lower", Source: Generator, Moves: "the cost of the harness's own spans"},
}

// ExactCounters are the per-layer metrics that must read the same on any two
// runs of one commit: they are set by the deployment's shape, not by time.
var ExactCounters = []string{
	"sched.flights_per_batch",
	"sched.layers_per_flight",
	"gpu.jobs_per_batch",
	"gpu.bytes_in_per_row",
	"gpu.bytes_out_per_row",
}
