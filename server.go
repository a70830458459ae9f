package darknight

import (
	"context"
	"errors"
	"fmt"
	"time"

	"darknight/internal/enclave"
	"darknight/internal/fleet"
	"darknight/internal/gpu"
	"darknight/internal/nn"
	"darknight/internal/obs"
	"darknight/internal/resil"
	"darknight/internal/sched"
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
	// when earlier. At most half the budget (BatchFraction) is spent
	// batching; the offload layer re-checks the deadline before every gang
	// dispatch.
	Budget time.Duration
	// BatchFraction overrides the batching share of the budget (0 picks
	// the 0.5 default).
	BatchFraction float64
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
		Budget:   resil.BudgetPolicy{Default: rc.Budget, BatchFraction: rc.BatchFraction},
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
	// Config carries K, M, E, cluster size, malicious markings, enclave
	// budget and seed. GPUs = 0 sizes the cluster for full worker
	// parallelism (Workers gangs of K+M+E devices each) plus SpareGPUs.
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
	// QueueDepth bounds the admission queue (0 = 4·K).
	QueueDepth int
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
	// Fleet tunes quarantine thresholds and probation; zero values pick
	// the fleet defaults. Tenants/SpeculateAfter/Seed above take
	// precedence over their Fleet counterparts.
	Fleet fleet.Config
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
	inner   *serve.Server
	fleet   *fleet.Manager
	cluster *gpu.Cluster
	encl    *enclave.Enclave
	obs     *obs.Observability
	msrv    *obs.MetricsServer
	// chaos holds the per-device fault actuators (Config.Chaos) and runner
	// the schedule player over them; both nil on a chaos-free server.
	chaos  []*gpu.ChaosDevice
	runner *resil.Runner
	// cfg is the fully defaulted configuration (cluster sized, SlowAll
	// expanded) and ref one worker's model replica — together the model
	// and cluster sections of a state snapshot.
	cfg ServerConfig
	ref *nn.Model
}

// NewServer stands up a serving deployment. newModel is called once per
// worker to build that worker's private model replica — return
// weight-identical models (same constructor and seed, or
// CopyWeightsFrom a trained reference).
func NewServer(newModel func() *Model, cfg ServerConfig) (*Server, error) {
	if cfg.VirtualBatch == 0 {
		cfg.VirtualBatch = 2
	}
	if cfg.Collusion == 0 {
		cfg.Collusion = 1
	}
	if cfg.Workers == 0 {
		cfg.Workers = 2
	}
	if cfg.MaxWait == 0 {
		cfg.MaxWait = 2 * time.Millisecond
	}
	gang := cfg.VirtualBatch + cfg.Collusion + cfg.Redundancy
	if cfg.GPUs == 0 {
		// A worker holds one gang per in-flight batch; size the default
		// cluster so the overlap is not starved of devices.
		cfg.GPUs = cfg.Workers*max(cfg.PipelineDepth, 1)*gang + cfg.SpareGPUs
	}
	if cfg.SlowAll {
		cfg.SlowGPUs = make([]int, cfg.GPUs)
		for i := range cfg.SlowGPUs {
			cfg.SlowGPUs[i] = i
		}
	}
	cluster, chaosDevs, err := buildCluster(cfg.Config)
	if err != nil {
		return nil, err
	}
	encl, err := buildEnclave(cfg.Config)
	if err != nil {
		return nil, err
	}
	replicas := make([]*nn.Model, cfg.Workers)
	for i := range replicas {
		replicas[i] = newModel().m
	}
	fcfg := cfg.Fleet
	fcfg.Tenants = cfg.Tenants
	fcfg.SpeculateAfter = cfg.SpeculateAfter
	fcfg.Seed = cfg.Seed
	fm := fleet.NewManager(cluster, fcfg)
	ob := cfg.Observability.build(cfg.Seed)
	srv, err := serve.New(serve.Config{
		Sched: sched.Config{
			VirtualBatch:   cfg.VirtualBatch,
			Collusion:      cfg.Collusion,
			Redundancy:     cfg.Redundancy,
			StragglerSlack: cfg.StragglerSlack,
			Seed:           cfg.Seed,
		},
		QueueDepth:    cfg.QueueDepth,
		MaxWait:       cfg.MaxWait,
		Recover:       cfg.Recover,
		PipelineDepth: cfg.PipelineDepth,
		Continuous:    cfg.Continuous,
		Obs:           ob,
		SLO:           cfg.Observability.SLO,
		BatchLog:      cfg.Observability.SnapshotBatchLog,
		Resil:         cfg.Resilience.toResil(),
	}, replicas, fm, encl)
	if err != nil {
		return nil, err
	}
	s := &Server{inner: srv, fleet: fm, cluster: cluster, encl: encl, obs: ob,
		chaos: chaosDevs, cfg: cfg, ref: replicas[0]}
	if len(chaosDevs) > 0 {
		var rec *obs.FlightRecorder
		if ob != nil {
			rec = ob.Recorder
		}
		s.runner = resil.NewRunner(chaosDevs, rec, srv.ResilCounters())
	}
	if ob != nil {
		ob.SetSnapshotProvider(s.CaptureSnapshot)
	}
	if addr := cfg.Observability.MetricsAddr; addr != "" {
		s.msrv, err = ob.Serve(addr)
		if err != nil {
			srv.Close()
			return nil, err
		}
	}
	return s, nil
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

// FleetStats returns the fleet health snapshot: per-device health and
// quarantine state, the quarantine event log, straggler/speculation
// counters and per-tenant share accounting.
func (s *Server) FleetStats() FleetStats { return s.fleet.Stats() }

// GPUTraffic returns the fleet's total TEE<->GPU channel usage.
func (s *Server) GPUTraffic() gpu.Traffic { return s.cluster.TotalTraffic() }

// EnclaveStats returns the shared enclave's counters (zero value if
// accounting is disabled).
func (s *Server) EnclaveStats() enclave.Stats {
	if s.encl == nil {
		return enclave.Stats{}
	}
	return s.encl.Stats()
}

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
