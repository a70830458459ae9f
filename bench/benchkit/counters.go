package benchkit

import (
	"math"
	"runtime/metrics"
	"time"
)

const mb = 1 << 20

// The cumulative counters the program exports, as indexes into a tally.
const (
	cBatches = iota
	cRealRows
	cPadRows
	cAdmits
	cIntegrity
	cRetries
	cDeadline
	cShed
	cPoolHits
	cPoolMisses
	cEncodeNs
	cDispatchNs
	cDecodeNs
	cWallNs
	cOffloads
	cFlights
	cStragglers
	cSpeculations
	cQuarantines
	cDeviceSecA
	cDeviceSecAll
	cJobs
	cBytesIn
	cBytesOut
	cSealOps
	cSealedBytes
	nCounters
)

// tally is one reading (or one delta, or a sum of deltas) of every
// cumulative counter the "C" metrics are made from. Deltas are taken around
// each coded slice and summed over the slices a run keeps, so a slice set
// aside for host noise takes its counts with it.
type tally [nCounters]float64

func (c counters) tally() tally {
	var t tally
	t[cBatches] = float64(c.serve.Batches)
	t[cRealRows] = float64(c.serve.RealRows)
	t[cPadRows] = float64(c.serve.PaddedRows)
	t[cAdmits] = float64(c.serve.ContinuousAdmits)
	t[cIntegrity] = float64(c.serve.Integrity)
	t[cRetries] = float64(c.serve.Resil.Retries)
	t[cDeadline] = float64(c.serve.Resil.Deadline)
	t[cShed] = float64(c.serve.Resil.Shed)
	t[cPoolHits] = float64(c.serve.NoisePool.Hits)
	t[cPoolMisses] = float64(c.serve.NoisePool.Misses)
	t[cEncodeNs] = float64(c.phases.Encode)
	t[cDispatchNs] = float64(c.phases.Dispatch)
	t[cDecodeNs] = float64(c.phases.Decode)
	t[cWallNs] = float64(c.phases.Wall)
	t[cOffloads] = float64(c.phases.Offloads)
	t[cFlights] = float64(c.phases.Flights)
	t[cStragglers] = float64(c.fleet.StragglerEvents)
	t[cSpeculations] = float64(c.fleet.Speculations)
	t[cQuarantines] = float64(c.fleet.QuarantineEvents)
	for _, u := range c.fleet.Tenants {
		t[cDeviceSecAll] += u.DeviceSeconds
		if u.Name == "a" {
			t[cDeviceSecA] = u.DeviceSeconds
		}
	}
	t[cJobs] = float64(c.traffic.Jobs)
	t[cBytesIn] = float64(c.traffic.BytesIn)
	t[cBytesOut] = float64(c.traffic.BytesOut)
	t[cSealOps] = float64(c.encl.SealOps)
	t[cSealedBytes] = float64(c.encl.SealedBytes)
	return t
}

func (t tally) sub(o tally) tally {
	for i := range t {
		t[i] -= o[i]
	}
	return t
}

func (t tally) add(o tally) tally {
	for i := range t {
		t[i] += o[i]
	}
	return t
}

// counterMetrics turns the program's own counters into the "C" metrics:
// what they gained over the kept slices, normalised per batch, per flight or
// per row; final supplies the high-water marks. A batch is a virtual batch
// of K coded rows — a served batch on the inference workloads, steps × 16/K
// on the training ones.
func counterMetrics(out map[string]Value, w *Workload, agg window, final counters) {
	c := agg.counters
	steps := 0.0
	batches := c[cBatches]
	if w.Kind == Train {
		steps = float64(agg.sent)
		batches = steps * trainBatch / float64(w.K)
	}
	k := float64(w.K)
	busy := c[cEncodeNs] + c[cDispatchNs] + c[cDecodeNs]

	out["sched.encode_busy_frac"] = Value{ratio(c[cEncodeNs], busy), "frac"}
	out["sched.dispatch_busy_frac"] = Value{ratio(c[cDispatchNs], busy), "frac"}
	out["sched.decode_busy_frac"] = Value{ratio(c[cDecodeNs], busy), "frac"}
	out["sched.overlap_ratio"] = Value{ratio(busy, c[cWallNs]), "x"}
	out["sched.encode_us_per_batch"] = Value{ratio(c[cEncodeNs]/1e3, batches), "us"}
	out["sched.decode_us_per_batch"] = Value{ratio(c[cDecodeNs]/1e3, batches), "us"}
	out["sched.dispatch_us_per_flight"] = Value{ratio(c[cDispatchNs]/1e3, c[cFlights]), "us"}
	out["sched.flights_per_batch"] = Value{ratio(c[cFlights], batches), "count"}
	out["sched.layers_per_flight"] = Value{ratio(c[cOffloads], c[cFlights]), "count"}

	// Bytes are what the devices' own counters add up to, per coded row of
	// a batch (real or pad): nothing here crossed a wire.
	out["gpu.jobs_per_batch"] = Value{ratio(c[cJobs], batches), "count"}
	out["gpu.bytes_in_per_row"] = Value{ratio(c[cBytesIn], batches*k), "bytes"}
	out["gpu.bytes_out_per_row"] = Value{ratio(c[cBytesOut], batches*k), "bytes"}

	out["fleet.straggler_events_per_batch"] = Value{ratio(c[cStragglers], batches), "count"}
	out["fleet.speculations"] = Value{c[cSpeculations], "count"}
	out["fleet.quarantine_events"] = Value{c[cQuarantines], "count"}
	out["fleet.peak_overlap"] = Value{float64(final.fleet.PeakOverlap), "count"}
	out["fleet.tenant_a_share"] = Value{ratio(c[cDeviceSecA], c[cDeviceSecAll]), "frac"}

	out["serve.occupancy"] = Value{ratio(c[cRealRows], c[cRealRows]+c[cPadRows]), "frac"}
	out["serve.pad_row_frac"] = Value{ratio(c[cPadRows], c[cRealRows]+c[cPadRows]), "frac"}
	out["serve.batches_per_s"] = Value{ratio(c[cBatches], agg.wall.Seconds()), "1/s"}
	out["serve.continuous_admits"] = Value{c[cAdmits], "count"}
	out["serve.p99_ms_raw"] = Value{float64(final.serve.P99) / float64(time.Millisecond), "ms"}
	out["serve.integrity_failed"] = Value{c[cIntegrity], "count"}

	out["resil.retries"] = Value{c[cRetries], "count"}
	out["resil.deadline_expired"] = Value{c[cDeadline], "count"}
	out["resil.shed"] = Value{c[cShed], "count"}

	// The training path does not export its noise pool outside the metrics
	// registry, so the hit rate reads 0 on train_*.
	out["masking.noisepool_hit_rate"] = Value{ratio(c[cPoolHits], c[cPoolHits]+c[cPoolMisses]), "frac"}

	out["enclave.seal_ops_per_step"] = Value{ratio(c[cSealOps], steps), "count"}
	out["enclave.sealed_bytes_per_step"] = Value{ratio(c[cSealedBytes], steps), "bytes"}
	out["enclave.peak_usage_mb"] = Value{float64(final.encl.PeakUsage) / mb, "MB"}
}

// runtimeMetrics reports the Go runtime's own signals over the kept slices
// (the scheduler-latency histogram over the whole window).
func runtimeMetrics(out map[string]Value, agg window, before, after *metrics.Float64Histogram) {
	rows := float64(agg.rows)
	out["runtime.allocs_per_row"] = Value{ratio(float64(agg.mallocs), rows), "count"}
	out["runtime.alloc_bytes_per_row"] = Value{ratio(float64(agg.allocBytes), rows), "bytes"}
	out["runtime.gc_pause_total_ms"] = Value{float64(agg.gcPauseNs) / 1e6, "ms"}
	out["runtime.heap_peak_mb"] = Value{float64(agg.heapPeak) / mb, "MB"}
	out["runtime.sched_latency_p99_us"] = Value{histQuantile(before, after, 0.99) * 1e6, "us"}
}

// histQuantile returns the q-quantile of the samples a cumulative runtime
// histogram gained between two readings (the upper edge of the bucket the
// quantile falls in; 0 when unavailable).
func histQuantile(before, after *metrics.Float64Histogram, q float64) float64 {
	if after == nil {
		return 0
	}
	counts := make([]uint64, len(after.Counts))
	var total uint64
	for i, c := range after.Counts {
		if before != nil && i < len(before.Counts) {
			c -= before.Counts[i]
		}
		counts[i] = c
		total += c
	}
	if total == 0 {
		return 0
	}
	rank := uint64(math.Ceil(float64(total) * q))
	var seen uint64
	for i, c := range counts {
		seen += c
		if seen >= rank {
			edge := after.Buckets[i+1]
			if math.IsInf(edge, 1) {
				edge = after.Buckets[i]
			}
			return edge
		}
	}
	return 0
}

// generatorMetrics reports on the load generator itself.
func generatorMetrics(out map[string]Value, w *Workload, agg window) {
	lateMax := 0.0
	for _, l := range agg.lateMs {
		lateMax = math.Max(lateMax, l)
	}
	out["loadgen.sent"] = Value{float64(agg.sent), "count"}
	out["loadgen.latency_p99_ms"] = Value{Percentile(agg.rawLat, 0.99), "ms"}
	out["loadgen.late_p99_ms"] = Value{Percentile(agg.lateMs, 0.99), "ms"}
	out["loadgen.late_max_ms"] = Value{lateMax, "ms"}
	// Traced against untraced slices of the same run: throughput lost on
	// the closed loops and training, CPU per row gained on the open loops.
	// 0 on an untraced run, which has no traced slices.
	overhead := 0.0
	if len(agg.tracedRate) > 0 && len(agg.untracedRate) > 0 {
		if w.Kind == OpenLoop {
			overhead = ratio(Median(agg.tracedCPU), Median(agg.untracedCPU)) - 1
		} else {
			overhead = 1 - ratio(Median(agg.tracedRate), Median(agg.untracedRate))
		}
	}
	out["loadgen.trace_overhead_frac"] = Value{overhead, "frac"}
}
