package fleet

import (
	"strconv"

	"darknight/internal/obs"
)

// SetObserver attaches a flight recorder: grants, releases, quarantine
// transitions and speculative re-dispatches are recorded as they happen.
// Safe to call at any time; a nil recorder detaches.
func (m *Manager) SetObserver(rec *obs.FlightRecorder) {
	m.mu.Lock()
	m.rec = rec
	m.mu.Unlock()
}

// recordEvent emits an event from an unlocked context (the speculation
// path). Locked paths read m.rec directly.
func (m *Manager) recordEvent(ev obs.Event) {
	m.mu.Lock()
	rec := m.rec
	m.mu.Unlock()
	rec.Record(ev)
}

// RegisterMetrics registers the fleet's series into a metrics registry.
// Every series is a scrape-time closure over the manager's existing
// counters — the grant/release hot path is untouched. Call once per
// registry; duplicate registration panics (obs.Registry semantics).
func (m *Manager) RegisterMetrics(r *obs.Registry) {
	lockedInt := func(fn func() int64) func() float64 {
		return func() float64 {
			m.mu.Lock()
			defer m.mu.Unlock()
			return float64(fn())
		}
	}
	r.CounterFunc("darknight_fleet_quarantine_events_total",
		"Lifetime device quarantine transitions.",
		lockedInt(func() int64 { return m.quarantineEvents }))
	r.CounterFunc("darknight_fleet_readmissions_total",
		"Lifetime probation re-admissions of quarantined devices.",
		lockedInt(func() int64 { return m.readmissions }))
	r.CounterFunc("darknight_fleet_straggler_events_total",
		"Device responses that missed their dispatch quorum.",
		lockedInt(func() int64 { return m.stragglerEvents }))
	r.CounterFunc("darknight_fleet_speculations_total",
		"Coded shares speculatively re-dispatched to spare devices.",
		lockedInt(func() int64 { return m.speculations }))
	r.CounterFunc("darknight_fleet_async_dispatches_total",
		"Gang flights opened across released grants.",
		lockedInt(func() int64 { return m.asyncDispatches }))
	r.GaugeFunc("darknight_fleet_peak_overlap",
		"Largest number of flights open at once on one gang.",
		lockedInt(func() int64 { return int64(m.peakOverlap) }))
	r.GaugeFunc("darknight_fleet_free_devices",
		"Devices currently free and in circulation.",
		lockedInt(func() int64 { return int64(len(m.free)) }))
	r.CounterFunc("darknight_fleet_slo_breaches_total",
		"SLO burn-rate threshold crossings delivered to the fleet.",
		lockedInt(func() int64 { return m.sloBreaches }))
	fh := r.HistogramVec("darknight_fleet_flight_latency_seconds",
		"Mean per-device coded-flight latency of each released grant.",
		"device", obs.LatencyBuckets())
	m.mu.Lock()
	m.flightHist = fh
	m.mu.Unlock()
	r.SampleFunc("darknight_fleet_devices",
		"Device population partitioned by health state.", "gauge",
		func() []obs.Sample {
			m.mu.Lock()
			var h, p, q int
			for _, rec := range m.devs {
				switch rec.state {
				case Healthy:
					h++
				case Probation:
					p++
				case Quarantined:
					q++
				}
			}
			m.mu.Unlock()
			return []obs.Sample{
				{Labels: map[string]string{"state": "healthy"}, Value: float64(h)},
				{Labels: map[string]string{"state": "probation"}, Value: float64(p)},
				{Labels: map[string]string{"state": "quarantined"}, Value: float64(q)},
			}
		})
	r.SampleFunc("darknight_fleet_device_dispatches_total",
		"Per-device lifetime dispatch count.", "counter",
		m.deviceSamples(func(d *deviceRec) float64 { return float64(d.dispatches) }))
	r.SampleFunc("darknight_fleet_device_faults_total",
		"Per-device lifetime integrity-fault count.", "counter",
		m.deviceSamples(func(d *deviceRec) float64 { return float64(d.faults) }))
	r.SampleFunc("darknight_fleet_device_stragglers_total",
		"Per-device lifetime quorum-miss count.", "counter",
		m.deviceSamples(func(d *deviceRec) float64 { return float64(d.stragglers) }))
	r.SampleFunc("darknight_fleet_tenant_grants_total",
		"Per-tenant lifetime gang grants.", "counter",
		m.tenantSamples(func(t *tenant) float64 { return float64(t.grants) }))
	r.SampleFunc("darknight_fleet_tenant_device_seconds_total",
		"Per-tenant lifetime device-time consumed.", "counter",
		m.tenantSamples(func(t *tenant) float64 { return t.deviceSeconds }))
	r.SampleFunc("darknight_fleet_tenant_queued",
		"Per-tenant gang acquisitions currently waiting.", "gauge",
		m.tenantSamples(func(t *tenant) float64 { return float64(len(t.queue)) }))
}

// deviceSamples builds a scrape closure emitting one labeled sample per
// device, ordered by cluster index.
func (m *Manager) deviceSamples(value func(*deviceRec) float64) func() []obs.Sample {
	return func() []obs.Sample {
		m.mu.Lock()
		defer m.mu.Unlock()
		out := make([]obs.Sample, 0, len(m.devs))
		for _, rec := range m.devs {
			out = append(out, obs.Sample{
				Labels: map[string]string{"device": strconv.Itoa(rec.id)},
				Value:  value(rec),
			})
		}
		return out
	}
}

// tenantSamples builds a scrape closure emitting one labeled sample per
// tenant, in registration order.
func (m *Manager) tenantSamples(value func(*tenant) float64) func() []obs.Sample {
	return func() []obs.Sample {
		m.mu.Lock()
		defer m.mu.Unlock()
		out := make([]obs.Sample, 0, len(m.names))
		for _, name := range m.names {
			out = append(out, obs.Sample{
				Labels: map[string]string{"tenant": name},
				Value:  value(m.tenants[name]),
			})
		}
		return out
	}
}
