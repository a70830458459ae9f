// Package obs is the unified observability layer of the stack: request
// tracing, an exportable metrics registry, and a chaos flight recorder,
// shared by serve, sched, fleet, gpu and masking.
//
// The three pillars:
//
//   - Tracing (span.go): allocation-frugal spans threaded through the
//     serving path — batcher admit→seal, the scheduler's
//     encode/dispatch/decode lanes (serial, Pipeline and TrainPipeline),
//     fleet grant acquisition and GPU flights — so every request yields a
//     span tree with batch/lane/gang/device annotations and a critical-path
//     breakdown. Disabled tracing costs nil checks only: every method is a
//     no-op on a nil receiver, and an unsampled request carries a nil span
//     through the whole stack.
//
//   - Metrics (registry.go): typed counters, label vecs, gauges and
//     histograms that are the one store of the numbers they hold — serve
//     keeps its request, batch and latency accounting in them and reads
//     them back for every report — plus closures for series whose store is
//     state another layer guards with its own lock (fleet.Manager, the
//     sched pipelines' phase totals, masking.NoisePool), read at scrape
//     time. Exported as Prometheus text via the /metrics listener
//     (http.go) and dumpable as JSON for bench artifacts.
//
//   - Flight recorder (recorder.go): a bounded ring of structured events
//     (grant granted/released, quarantine transitions, straggler
//     re-dispatch, integrity verdicts) with Dump/DumpSince for
//     post-mortem inspection; chaos tests dump it on failure.
//
// An Observability bundles the three so subsystems take one optional
// handle. All of it is nil-tolerant: a nil *Observability (or any nil
// pillar) disables that surface with zero overhead.
package obs

import (
	"fmt"
	"io"
	"runtime"
	"sync"
	"time"
)

// BuildVersion identifies this build of the stack in
// darknight_build_info scrapes, so metrics are attributable across a
// fleet of heterogeneous binaries.
const BuildVersion = "0.8.0"

// Options configures an Observability bundle.
type Options struct {
	// TraceSample is the fraction of requests traced: 0 disables tracing
	// (Start returns nil spans), 1 traces everything.
	TraceSample float64
	// TraceKeep bounds the ring of completed root spans kept for dumps
	// (default 16).
	TraceKeep int
	// RecorderSize bounds the flight-recorder event ring; <= 0 picks the
	// default of 1024.
	RecorderSize int
	// Seed drives the sampling draws, making traced runs reproducible.
	Seed int64
}

// Observability bundles the three pillars. Subsystems accept a
// *Observability and use whichever pillars are non-nil; a nil bundle
// disables everything.
type Observability struct {
	Tracer   *Tracer
	Registry *Registry
	Recorder *FlightRecorder

	mu       sync.Mutex
	snapshot func() (*Snapshot, error)
}

// New assembles a bundle: a registry always (pre-seeded with the
// build-info and uptime families), a tracer at the configured sampling
// rate, and a flight recorder of the configured capacity.
func New(o Options) *Observability {
	reg := NewRegistry()
	start := time.Now()
	reg.SampleFunc("darknight_build_info",
		"Build metadata (constant 1); the labels carry the version.",
		"gauge", func() []Sample {
			return []Sample{{Labels: map[string]string{
				"version":   BuildVersion,
				"goversion": runtime.Version(),
			}, Value: 1}}
		})
	reg.GaugeFunc("darknight_uptime_seconds",
		"Seconds since this observability bundle was created.",
		func() float64 { return time.Since(start).Seconds() })
	return &Observability{
		Tracer:   NewTracer(o.TraceSample, o.TraceKeep, o.Seed),
		Registry: reg,
		Recorder: NewFlightRecorder(o.RecorderSize),
	}
}

// SetSnapshotProvider installs the closure behind the /snapshot HTTP
// endpoint — typically the facade Server's CaptureSnapshot. Nil-safe.
func (o *Observability) SetSnapshotProvider(fn func() (*Snapshot, error)) {
	if o == nil {
		return
	}
	o.mu.Lock()
	o.snapshot = fn
	o.mu.Unlock()
}

// snapshotProvider returns the installed provider, or nil.
func (o *Observability) snapshotProvider() func() (*Snapshot, error) {
	if o == nil {
		return nil
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.snapshot
}

// StartTrace begins a sampled root span, or returns nil when the bundle,
// its tracer, or the sampling draw says no.
func (o *Observability) StartTrace(name string) *Span {
	if o == nil {
		return nil
	}
	return o.Tracer.Start(name)
}

// Reg returns the registry, or nil.
func (o *Observability) Reg() *Registry {
	if o == nil {
		return nil
	}
	return o.Registry
}

// WriteMetrics writes the Prometheus text exposition of the registry.
func (o *Observability) WriteMetrics(w io.Writer) error {
	if o == nil || o.Registry == nil {
		return fmt.Errorf("obs: no registry attached")
	}
	return o.Registry.WritePrometheus(w)
}
