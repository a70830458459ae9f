package darknight

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"reflect"
	"time"

	"darknight/internal/fleet"
	"darknight/internal/nn"
	"darknight/internal/obs"
	"darknight/internal/resil"
	"darknight/internal/serve"
)

// Typed resilience outcomes a client can observe. ErrDeadline additionally
// matches errors.Is(err, context.DeadlineExceeded).
var (
	// ErrDeadline reports a request whose end-to-end deadline budget
	// expired before (or during) dispatch.
	ErrDeadline = resil.ErrDeadline
	// ErrShed reports a request rejected by admission control before any
	// work was done; clients should back off and retry.
	ErrShed = resil.ErrShed
	// ErrRetriesExhausted reports a request whose batch failed on its
	// original gang and on every permitted retry gang.
	ErrRetriesExhausted = resil.ErrRetriesExhausted
)

// ChaosSchedule is a deterministic fault script playable against a
// chaos-enabled server: timed device crashes, latency spikes, tamper
// bursts, flapping and partitions (see internal/resil for the format).
type ChaosSchedule = resil.Schedule

// ChaosEvent is one scripted fault of a ChaosSchedule.
type ChaosEvent = resil.ChaosEvent

// ResilSnapshot is the resilience accounting: sheds, deadline expiries,
// retries, hedges, brownout transitions, chaos actions.
type ResilSnapshot = resil.Snapshot

// LoadChaosSchedule reads and validates a chaos schedule file.
func LoadChaosSchedule(path string) (*ChaosSchedule, error) {
	return resil.LoadSchedule(path)
}

// ResilienceConfig selects the adaptive resilience layer of a Server: the
// zero value disables all of it and the serving hot path stays at its
// previous cost.
type ResilienceConfig struct {
	// Budget is the default end-to-end deadline applied to requests whose
	// context carries none (0 = unbounded). A caller deadline always wins
	// when earlier. At most half the budget (DefaultBatchFraction) is spent
	// batching; the offload layer re-checks the deadline before every gang
	// dispatch.
	Budget time.Duration
	// RetryMax re-dispatches a failed or integrity-rejected virtual batch
	// onto a fresh gang up to this many times, under capped exponential
	// backoff (0 disables retry).
	RetryMax int
	// HedgeQuantile > 0 enables hedged dispatch: a batch whose primary
	// gang has not answered within this observed latency percentile (e.g.
	// 0.95) is speculatively duplicated on spare capacity — a spare lane of
	// its worker and a gang nobody is queueing for — and the first answer
	// wins.
	HedgeQuantile float64
	// ShedQueue > 0 enables admission control: a tenant's request is shed
	// with ErrShed when the queue holds at least this many requests
	// (scaled by its ShedPriorities share).
	ShedQueue int
	// ShedPriorities maps tenant names to their share of ShedQueue in
	// (0, 1]; "*" sets the default (1 when absent). High-priority tenants
	// keep admitting while lower ones shed.
	ShedPriorities map[string]float64
	// Brownout enables the SLO-driven degradation controller: sustained
	// burn-rate breaches shrink the flush window, disable hedging, tighten
	// shedding and cap pipeline depth — stepwise, and stepwise restored
	// when the burn recovers. Requires SLO objectives
	// (Observability.SLO); enabling it implies the observability stack.
	Brownout bool
}

// toResil lowers the facade knobs onto the internal policy set.
func (rc ResilienceConfig) toResil() resil.Config {
	c := resil.Config{
		Budget:   resil.BudgetPolicy{Default: rc.Budget},
		Retry:    resil.RetryPolicy{Max: rc.RetryMax},
		Shed:     resil.ShedPolicy{MaxQueue: rc.ShedQueue, Priorities: rc.ShedPriorities},
		Brownout: resil.BrownoutPolicy{Enabled: rc.Brownout},
	}
	if rc.HedgeQuantile > 0 {
		c.Hedge = resil.HedgePolicy{Enabled: true, Quantile: rc.HedgeQuantile}
	}
	return c
}

// Tenant names a traffic source and its fair-share weight.
type Tenant = fleet.TenantConfig

// FleetStats is a snapshot of device health, quarantine events and
// per-tenant share accounting.
type FleetStats = fleet.Stats

// ServerConfig selects the operating point of an inference server: the
// privacy/integrity knobs of Config plus the serving-layer and
// fleet-management shape.
type ServerConfig struct {
	// Config carries K, M, E, cluster size, malicious and slow markings,
	// chaos, enclave budget and seed. GPUs = 0 sizes the cluster for full
	// worker parallelism (Workers gangs of K+M+E devices each) plus
	// SpareGPUs. NewServer rejects the Config fields it does not read:
	// SpareGPUs, SlowAll, StragglerSlack and Observability (set the
	// ServerConfig fields of those names), TrainPipelineDepth (set
	// PipelineDepth), and the training-only ManagedFleet, LearningRate and
	// Momentum.
	Config
	// Workers is the number of concurrent inference pipelines, each with a
	// private model replica (default 2).
	Workers int
	// PipelineDepth is the number of virtual batches each worker keeps in
	// flight (0 and 1 both mean one): at depth d, while batch i is on the
	// GPUs the TEE decodes batch i−1 and encodes batch i+1, with noise
	// pre-drawn offline by a background pool. Each in-flight batch holds
	// its own gang, so full overlap wants GPUs ≈ Workers × PipelineDepth ×
	// gang (GPUs = 0 sizes the cluster that way). Outputs are bit-identical
	// whatever the depth.
	PipelineDepth int
	// MaxWait bounds how long a request waits for K-1 peers before its
	// batch is flushed padded with uniform-noise dummy rows. 0 picks the
	// default of 2ms; negative flushes immediately (every batch carries
	// one real row — the unbatched baseline).
	MaxWait time.Duration
	// Tenants pre-registers named tenants with fair-share weights; unknown
	// tenants are auto-registered at weight 1. Use Server.InferAs to tag
	// requests.
	Tenants []Tenant
	// SpareGPUs adds devices beyond the Workers×gang sizing — headroom for
	// quarantine survival and speculative straggler re-dispatch.
	SpareGPUs int
	// SlowAll marks every device in the cluster slow by SlowDelay — the
	// uniform per-dispatch device-latency regime that pipelined execution
	// hides. Resolved after the cluster is sized, so it always covers the
	// whole fleet (unlike a hand-built SlowGPUs list).
	SlowAll bool
	// Recover enables audit-and-recover: a tampered batch is decoded from
	// the clean equations instead of failing, and the attributed culprit
	// device is quarantined. Requires Redundancy >= 2.
	Recover bool
	// StragglerSlack lets a dispatch decode after all but this many coded
	// responses arrive (needs Redundancy >= 2; one redundant equation is
	// always kept for verification).
	StragglerSlack int
	// Deprecated: Fuse has no effect. Every server flies each virtual
	// batch — all of its offloads — as one gang flight. The field remains
	// only because the benchmark harness under bench/ still sets it.
	Fuse bool
	// Continuous enables continuous batching: a flushed padded batch keeps
	// accepting same-tenant riders in place of its pad rows until a worker
	// picks it up (the batch seals at pickup, not at flush).
	Continuous bool
	// SpeculateAfter re-dispatches a coded share that has not answered
	// within this window to a spare device. 0 disables. Speculation rides
	// the straggler quorum path, so it only engages when StragglerSlack
	// >= 1 and Redundancy >= 2 (and a spare device is free).
	SpeculateAfter time.Duration
	// Observability switches on request tracing, the exportable metrics
	// registry, and the chaos flight recorder. Zero value = off, and the
	// hot path stays at its untraced cost.
	Observability ObservabilityConfig
	// Resilience selects the adaptive resilience layer: deadline budgets,
	// retry onto fresh gangs, hedged dispatch, load shedding and brownout
	// degradation. Zero value = off.
	Resilience ResilienceConfig
	// Arch optionally names the model architecture (a BuildModel registry
	// name such as "tiny" or "vgg"). It is recorded in state snapshots so
	// `darknight replay` can rebuild the model from arch + seed alone.
	Arch string
}

// ServerMetrics is a snapshot of the serving counters.
type ServerMetrics = serve.Snapshot

// Server is a concurrent private-inference service: independent clients'
// single-image requests are coalesced into per-tenant virtual batches of
// exactly K, coded in the TEE, and gang-dispatched onto K+M+E devices
// granted by a self-healing fair-share fleet manager.
type Server struct {
	deployment
	inner *serve.Server
	// runner plays chaos schedules over the deployment's fault actuators
	// (nil on a chaos-free server).
	runner *resil.Runner
	// arch and ref, one worker's model replica, are the model section of a
	// state snapshot.
	arch string
	ref  *nn.Model
}

// NewServer stands up a serving deployment. newModel is called once per
// worker to build that worker's private model replica — return
// weight-identical models (same constructor and seed, or
// CopyWeightsFrom a trained reference).
func NewServer(newModel func() *Model, cfg ServerConfig) (*Server, error) {
	if err := unreadByServer(&cfg.Config); err != nil {
		return nil, err
	}
	cfg.Workers = cmp.Or(cfg.Workers, 2)
	cfg.MaxWait = cmp.Or(cfg.MaxWait, 2*time.Millisecond)
	// The deployment resolves a Config; the ServerConfig fields of these
	// names are the ones a server reads.
	cfg.Config.SpareGPUs, cfg.Config.SlowAll = cfg.SpareGPUs, cfg.SlowAll
	cfg.Config.StragglerSlack, cfg.Config.Observability = cfg.StragglerSlack, cfg.Observability
	// A worker holds one gang per in-flight batch.
	d, err := newDeployment(cfg.Config, cfg.Workers*max(cfg.PipelineDepth, 1))
	if err != nil {
		return nil, err
	}
	replicas := make([]*nn.Model, cfg.Workers)
	for i := range replicas {
		replicas[i] = newModel().m
	}
	d.fm = fleet.NewManager(d.cluster, fleet.Config{
		Tenants:        cfg.Tenants,
		SpeculateAfter: cfg.SpeculateAfter,
		Seed:           cfg.Seed,
	})
	srv, err := serve.New(serve.Config{
		Sched:         d.schedConfig(),
		MaxWait:       cfg.MaxWait,
		Recover:       cfg.Recover,
		PipelineDepth: cfg.PipelineDepth,
		Continuous:    cfg.Continuous,
		Obs:           d.obs,
		SLO:           cfg.Observability.SLO,
		Resil:         cfg.Resilience.toResil(),
	}, replicas, d.fm, d.encl)
	if err != nil {
		return nil, err
	}
	s := &Server{deployment: d, inner: srv, arch: cfg.Arch, ref: replicas[0]}
	var rec *obs.FlightRecorder
	if s.obs != nil {
		rec = s.obs.Recorder
		s.obs.SetSnapshotProvider(s.CaptureSnapshot)
	}
	if len(s.chaos) > 0 {
		s.runner = resil.NewRunner(s.chaos, rec, srv.ResilCounters())
	}
	if err := s.listen(); err != nil {
		srv.Close()
		return nil, err
	}
	return s, nil
}

// unreadByServer names the first field set on a server's embedded Config
// that NewServer would otherwise ignore, and what to set instead.
func unreadByServer(c *Config) error {
	for _, f := range []struct {
		set       bool
		name, use string // use: the ServerConfig field to set instead; "" when training-only
	}{
		{c.SpareGPUs != 0, "SpareGPUs", "SpareGPUs"},
		{c.SlowAll, "SlowAll", "SlowAll"},
		{c.StragglerSlack != 0, "StragglerSlack", "StragglerSlack"},
		{!reflect.ValueOf(c.Observability).IsZero(), "Observability", "Observability"},
		{c.TrainPipelineDepth != 0, "TrainPipelineDepth", "PipelineDepth"},
		{c.ManagedFleet, "ManagedFleet", ""},
		{c.LearningRate != 0, "LearningRate", ""},
		{c.Momentum != 0, "Momentum", ""},
	} {
		switch {
		case !f.set:
		case f.use == "":
			return fmt.Errorf("darknight: a server does not read Config.%s: it only tunes training", f.name)
		default:
			return fmt.Errorf("darknight: a server does not read Config.%s: set ServerConfig.%s", f.name, f.use)
		}
	}
	return nil
}

// Infer privately classifies one image for the default tenant, blocking
// until its virtual batch is dispatched and decoded (or ctx is done).
// Tampered GPU results on the request's batch surface as an error
// satisfying IsIntegrityError.
func (s *Server) Infer(ctx context.Context, image []float64) (int, error) {
	return s.inner.Infer(ctx, image)
}

// InferAs privately classifies one image on behalf of a named tenant. The
// request is only ever batched with rows of the same tenant and its device
// time is charged to that tenant's fair-share account.
func (s *Server) InferAs(ctx context.Context, tenant string, image []float64) (int, error) {
	return s.inner.InferTenant(ctx, tenant, image)
}

// Metrics returns the serving counters: throughput, latency quantiles,
// queue depth, batch occupancy, integrity failures, per-tenant usage and
// the fleet health snapshot.
func (s *Server) Metrics() ServerMetrics { return s.inner.Metrics() }

// Close drains in-flight requests, stops the workers, and shuts down the
// metrics listener if one is serving.
func (s *Server) Close() {
	s.msrv.Close()
	s.inner.Close()
}

// IsIntegrityError reports whether a serving error was caused by tampered
// GPU results.
func IsIntegrityError(err error) bool { return serve.IsIntegrityError(err) }

// IsShed reports whether a serving error is an admission-control shed —
// the client did no work and should back off and retry.
func IsShed(err error) bool { return errors.Is(err, ErrShed) }

// IsDeadline reports whether a serving error is a deadline-budget expiry
// (it also matches plain context.DeadlineExceeded checks).
func IsDeadline(err error) bool { return errors.Is(err, context.DeadlineExceeded) }

// ErrNoChaos is returned by the chaos methods of a server built without
// Config.Chaos.
var ErrNoChaos = errors.New("darknight: server built without Config.Chaos")

// PlayChaos applies a fault schedule to the live fleet in real time,
// blocking until the last scripted action fires or ctx is done (on
// cancellation every actuator resets to clean). Requires Config.Chaos.
func (s *Server) PlayChaos(ctx context.Context, sched *ChaosSchedule) error {
	if s.runner == nil {
		return ErrNoChaos
	}
	if err := sched.Validate(); err != nil {
		return fmt.Errorf("darknight: bad chaos schedule: %w", err)
	}
	return s.runner.Play(ctx, sched)
}

// StartChaos plays a fault schedule on a background goroutine; the
// returned stop function cancels it (resetting the actuators) and waits
// for exit. Requires Config.Chaos.
func (s *Server) StartChaos(sched *ChaosSchedule) (stop func(), err error) {
	if s.runner == nil {
		return nil, ErrNoChaos
	}
	if err := sched.Validate(); err != nil {
		return nil, fmt.Errorf("darknight: bad chaos schedule: %w", err)
	}
	return s.runner.Start(sched), nil
}

// ResetChaos returns every fault actuator to the clean state (no-op
// without Config.Chaos).
func (s *Server) ResetChaos() {
	if s.runner != nil {
		s.runner.Reset()
	}
}

// ResilStats returns the resilience accounting: sheds, deadline expiries,
// retries, hedges, brownout transitions and chaos actions.
func (s *Server) ResilStats() ResilSnapshot { return s.Metrics().Resil }

// BrownoutLevel returns the current degradation level (0 = full service).
func (s *Server) BrownoutLevel() int { return s.inner.BrownoutLevel() }
