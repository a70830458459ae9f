package darknight

import (
	"io"

	"darknight/internal/obs"
)

// Observability bundles the three observability pillars — tracer, metrics
// registry, flight recorder. Obtain one from Server.Observability or
// System.Observability; nil disables everything.
type Observability = obs.Observability

// TraceSpan is one node of a request's span tree: name, wall-clock
// interval, annotations, children. Render/RenderBreakdown pretty-print a
// completed tree and its critical-path breakdown.
type TraceSpan = obs.Span

// FlightEvent is one structured entry of the chaos flight recorder:
// grants, quarantine transitions, straggler re-dispatch, integrity
// verdicts.
type FlightEvent = obs.Event

// SLOConfig declares per-tenant service-level objectives and the sliding
// windows / burn threshold they are evaluated over.
type SLOConfig = obs.SLOConfig

// SLOObjective is one tenant's objective: a latency target at a goal
// fraction, and an error budget. Tenant "*" applies to all tenants.
type SLOObjective = obs.SLOObjective

// SLOBreach is one burn-rate threshold crossing (or clearing).
type SLOBreach = obs.Breach

// BurnRate is one tenant's budget burn over one window.
type BurnRate = obs.BurnRate

// SLOTracker evaluates objectives over sliding windows; obtain one from
// Server.SLO.
type SLOTracker = obs.SLOTracker

// StateSnapshot is a versioned, serializable capture of a running
// deployment — config, fleet health, tenant occupancy, the completed-batch
// log and the flight-recorder window — sufficient for deterministic replay.
type StateSnapshot = obs.Snapshot

// ObservabilityConfig switches on the unified observability layer for a
// Server (ServerConfig.Observability) or a System (Config.Observability).
// The zero value attaches nothing: no tracer (the untraced path pays
// nil-span pointer checks only), no flight recorder, no exported registry.
// A Server's own counters and latency histogram — what Server.Metrics
// reads — run either way; enabling the stack exports those same
// instruments on /metrics next to the fleet's and the resilience layer's.
type ObservabilityConfig struct {
	// Enabled turns the stack on (registry + flight recorder + tracer at
	// TraceSample) even when every other field is zero. Any non-zero field
	// below implies it.
	Enabled bool
	// MetricsAddr starts an HTTP listener (e.g. ":9090", or "127.0.0.1:0"
	// for an ephemeral port) exporting /metrics (Prometheus text),
	// /metrics.json, /traces and /flightrecorder.
	MetricsAddr string
	// TraceSample is the fraction of requests traced: 0 none, 1 all.
	// Sampling draws are seeded from the deployment's Seed, so traced runs
	// are reproducible.
	TraceSample float64
	// FlightRecorderSize bounds the structured-event ring (default 1024).
	FlightRecorderSize int
	// SLO declares per-tenant objectives; when any are set, the server
	// tracks burn rates (exported as darknight_slo_burn_rate) and records
	// threshold crossings in the flight recorder. Server only: NewSystem
	// rejects it.
	SLO SLOConfig
	// SnapshotWeights embeds the full model weights in captured snapshots
	// (instead of just their hash), making them self-contained — replay
	// does not need to rebuild the exact model. Costly for large models.
	// Server only: NewSystem rejects it.
	SnapshotWeights bool
}

// enabled reports whether any knob asks for the observability stack.
func (o ObservabilityConfig) enabled() bool {
	return o.Enabled || o.MetricsAddr != "" || o.TraceSample > 0 ||
		o.FlightRecorderSize > 0 || len(o.SLO.Objectives) > 0
}

// build assembles the bundle (nil when disabled).
func (o ObservabilityConfig) build(seed int64) *obs.Observability {
	if !o.enabled() {
		return nil
	}
	return obs.New(obs.Options{
		TraceSample:  o.TraceSample,
		RecorderSize: o.FlightRecorderSize,
		Seed:         seed,
	})
}

// listen starts the metrics listener MetricsAddr asks for. Constructors
// call it last, once every series it exports is registered.
func (d *deployment) listen() error {
	addr := d.cfg.Observability.MetricsAddr
	if addr == "" {
		return nil
	}
	var err error
	d.msrv, err = d.obs.Serve(addr)
	return err
}

// Observability returns the deployment's bundle (nil when not configured).
func (d *deployment) Observability() *Observability { return d.obs }

// MetricsAddr returns the bound address of the metrics listener — useful
// with an ephemeral ":0" configuration — or "" when none is serving.
func (d *deployment) MetricsAddr() string { return d.msrv.Addr() }

// WriteMetrics writes the Prometheus text exposition of every registered
// series (serving or training counters, fleet health, noise-pool stats).
func (d *deployment) WriteMetrics(w io.Writer) error { return d.obs.WriteMetrics(w) }

// FlightRecorderDump returns the recorded chaos events, oldest first.
func (d *deployment) FlightRecorderDump() []FlightEvent {
	if d.obs == nil {
		return nil
	}
	return d.obs.Recorder.Dump()
}

// RecentTraces returns the most recent completed request span trees, oldest
// first (empty when tracing is off or nothing sampled yet).
func (s *Server) RecentTraces() []*TraceSpan {
	if s.obs == nil {
		return nil
	}
	return s.obs.Tracer.Recent()
}

// Trace returns the most recent completed training/inference span tree, or
// nil when tracing is off or nothing has completed yet.
func (s *System) Trace() *TraceSpan {
	if s.obs == nil {
		return nil
	}
	recent := s.obs.Tracer.Recent()
	if len(recent) == 0 {
		return nil
	}
	return recent[len(recent)-1]
}
