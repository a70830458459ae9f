package serve

import (
	"math"
	"slices"
	"strings"
	"time"

	"darknight/internal/fleet"
	"darknight/internal/masking"
	"darknight/internal/obs"
	"darknight/internal/resil"
	"darknight/internal/sched"
)

// Metrics is the serving layer's instrument set. Every serving number has
// exactly one store — one of these obs instruments, registered under the
// family named beside it — and everything that reports the number
// (Snapshot, the state snapshot, /metrics, the CLI) reads the instrument.
// All methods are safe for concurrent use and take no serve-level lock.
type Metrics struct {
	k     int
	start time.Time

	// Per-tenant outcomes are one multi-label CounterVec per event kind;
	// the all-tenant totals are sums over their children.
	requests *obs.CounterVec // darknight_tenant_requests_total{tenant,outcome}
	batches  *obs.CounterVec // darknight_batches_total{tenant}
	rows     *obs.CounterVec // darknight_batch_rows_total{tenant,kind}

	integrity  *obs.Counter // darknight_requests_integrity_failures_total
	continuous *obs.Counter // darknight_continuous_admits_total
	depth      *obs.Gauge   // darknight_queue_depth: admitted, not yet dispatched

	// latency holds the end-to-end latency of completed requests, per
	// tenant (failures are counted in requests, not timed); its rings are
	// the samples behind Snapshot.P50/P99.
	latency *obs.HistogramVec // darknight_request_latency_hist_seconds{tenant}

	// slo is the burn-rate tracker (nil without objectives).
	slo *obs.SLOTracker
}

// newMetrics registers the serving instruments, and the two all-tenant
// request totals derived from them, into r.
func newMetrics(k int, r *obs.Registry) *Metrics {
	m := &Metrics{
		k:     k,
		start: time.Now(),
		requests: r.CounterVec("darknight_tenant_requests_total",
			"Per-tenant request outcomes.", "tenant", "outcome"),
		batches: r.CounterVec("darknight_batches_total",
			"Virtual batches dispatched, by tenant.", "tenant"),
		rows: r.CounterVec("darknight_batch_rows_total",
			"Rows dispatched across all batches, by tenant and kind (real, padded).", "tenant", "kind"),
		integrity: r.Counter("darknight_requests_integrity_failures_total",
			"Failed requests caused by tampered GPU results."),
		continuous: r.Counter("darknight_continuous_admits_total",
			"Requests admitted into an already-flushed batch in place of a pad row."),
		depth: r.Gauge("darknight_queue_depth",
			"Admitted requests not yet dispatched."),
		latency: r.HistogramVec("darknight_request_latency_hist_seconds",
			"Per-tenant end-to-end latency of completed requests (log buckets, exact ring quantiles).",
			"tenant", obs.LatencyBuckets()),
	}
	r.CounterFunc("darknight_requests_completed_total",
		"Requests answered successfully.", m.outcomeTotal("completed"))
	r.CounterFunc("darknight_requests_failed_total",
		"Requests answered with an error.", m.outcomeTotal("failed"))
	return m
}

// outcomeTotal reads one outcome of the requests vec summed over tenants.
func (m *Metrics) outcomeTotal(outcome string) func() float64 {
	return func() float64 {
		var total int64
		m.requests.Each(func(v []string, n int64) {
			if v[1] == outcome {
				total += n
			}
		})
		return float64(total)
	}
}

// finished records one dispatched batch outcome at time now.
func (m *Metrics) finished(b *vbatch, now time.Time, err error) {
	n := int64(len(b.reqs))
	m.batches.With(b.tenant).Inc()
	m.rows.With(b.tenant, "real").Add(n)
	m.rows.With(b.tenant, "padded").Add(int64(m.k) - n)
	var lat *obs.Histogram // stays nil (inert) for a failed batch
	if err == nil {
		m.requests.With(b.tenant, "completed").Add(n)
		lat = m.latency.With(b.tenant)
	} else {
		m.requests.With(b.tenant, "failed").Add(n)
		if IsIntegrityError(err) {
			m.integrity.Add(n)
		}
	}
	for _, r := range b.reqs {
		l := now.Sub(r.enqueued)
		lat.Observe(l.Seconds())
		m.slo.Observe(b.tenant, l, err != nil)
	}
}

// Snapshot is the serving view: every field is read from the one store of
// its number at the time of the call. The serving instruments fill the
// request, batch and latency fields (Metrics.Snapshot); Server.Metrics adds
// the fields whose stores other layers own.
type Snapshot struct {
	Completed  int64 // requests answered successfully
	Failed     int64 // requests answered with an error
	Integrity  int64 // failed requests caused by tampered GPU results
	Batches    int64 // virtual batches dispatched
	RealRows   int64 // client rows across all batches
	PaddedRows int64 // dummy rows across all batches
	QueueDepth int   // admitted requests not yet dispatched
	// ContinuousAdmits counts requests that rode an already-flushed batch
	// in place of a pad row (continuous batching, Config.Continuous).
	ContinuousAdmits int64

	// Occupancy is the mean fraction of real rows per dispatched batch
	// (1.0 = every batch full, 1/K = pure one-at-a-time traffic).
	Occupancy float64
	// Throughput is completed requests per second since server start.
	Throughput float64
	// P50/P99 are nearest-rank latency quantiles over the tenants' merged
	// latency rings: the most recent 1024 completions of each tenant.
	P50, P99 time.Duration

	// Phases is the cumulative TEE-side encode/dispatch/decode latency
	// breakdown summed over the workers' pipelines — where the coded hot
	// path spends its time. Phases.Offloads counts the bilinear-layer
	// dispatches measured; Phases.Wall is the workers' busy wall-clock.
	Phases sched.PhaseStats
	// Overlap is (Encode+Dispatch+Decode)/Wall — 1.0 means the stages ran
	// strictly in sequence, values above 1 mean the pipelined engine kept
	// the TEE and the devices busy simultaneously.
	Overlap float64
	// NoisePool aggregates the workers' offline noise generators, one per
	// pipeline whatever its depth: Hits are encodes served from precomputed
	// material, Misses fell back to inline draws.
	NoisePool masking.NoisePoolStats

	// Tenants is the per-tenant request accounting, ordered by name.
	Tenants []TenantSnapshot

	// Fleet is the device health / quarantine / fair-share snapshot
	// (populated by Server.Metrics).
	Fleet fleet.Stats

	// Resil is the resilience accounting — sheds, deadline expiries,
	// retries, hedges, brownout level (populated by Server.Metrics).
	Resil resil.Snapshot
}

// TenantSnapshot is one tenant's serving counters.
type TenantSnapshot struct {
	Name      string
	Completed int64
	Failed    int64
	Batches   int64
	RealRows  int64
	// Occupancy is the tenant's mean fraction of real rows per batch.
	Occupancy float64
}

// Snapshot reads the instruments into one view.
func (m *Metrics) Snapshot() Snapshot {
	s := Snapshot{
		Integrity:        m.integrity.Value(),
		QueueDepth:       int(m.depth.Value()),
		ContinuousAdmits: m.continuous.Value(),
		P50:              seconds(m.latency.Quantile(0.50)),
		P99:              seconds(m.latency.Quantile(0.99)),
	}
	// tenant returns (adding if needed) a tenant's entry of s.Tenants.
	tenant := func(name string) *TenantSnapshot {
		for i := range s.Tenants {
			if s.Tenants[i].Name == name {
				return &s.Tenants[i]
			}
		}
		s.Tenants = append(s.Tenants, TenantSnapshot{Name: name})
		return &s.Tenants[len(s.Tenants)-1]
	}
	m.requests.Each(func(v []string, n int64) {
		if v[1] == "completed" {
			tenant(v[0]).Completed = n
			s.Completed += n
		} else {
			tenant(v[0]).Failed = n
			s.Failed += n
		}
	})
	m.batches.Each(func(v []string, n int64) {
		tenant(v[0]).Batches = n
		s.Batches += n
	})
	m.rows.Each(func(v []string, n int64) {
		if v[1] == "real" {
			tenant(v[0]).RealRows = n
			s.RealRows += n
		} else {
			s.PaddedRows += n
		}
	})
	for i := range s.Tenants {
		if ts := &s.Tenants[i]; ts.Batches > 0 {
			ts.Occupancy = float64(ts.RealRows) / float64(ts.Batches*int64(m.k))
		}
	}
	slices.SortFunc(s.Tenants, func(a, b TenantSnapshot) int { return strings.Compare(a.Name, b.Name) })
	if s.Batches > 0 {
		s.Occupancy = float64(s.RealRows) / float64(s.Batches*int64(m.k))
	}
	if el := time.Since(m.start).Seconds(); el > 0 {
		s.Throughput = float64(s.Completed) / el
	}
	return s
}

// seconds converts a histogram reading back to a Duration.
func seconds(v float64) time.Duration {
	return time.Duration(math.Round(v * float64(time.Second)))
}
