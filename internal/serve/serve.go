// Package serve turns the DarKnight pipeline into a concurrent
// private-inference service. The paper's TEE *must* code K inputs together
// before every GPU offload (§3.1), which makes dynamic batching the natural
// serving primitive rather than an optimization: independent clients'
// requests are coalesced into virtual batches of exactly K, and when a
// request's deadline expires before K real rows arrive, the batch is padded
// with uniform-noise dummy rows — privacy-neutral, since the masking code
// mixes every row with uniform noise anyway and dummy outputs are simply
// dropped.
//
// The moving parts:
//
//   - an admission queue (Server.Infer / Server.InferTenant) accepting
//     single-image requests with deadlines, tagged with a tenant;
//   - a dynamic batcher goroutine coalescing them into per-tenant virtual
//     batches (tenants are never coded together: each batch is charged to
//     one fair-share account);
//   - a worker pool where each worker owns a forward-only sched.Pipeline
//     over a private model replica and gang-acquires K+M+E devices per
//     in-flight batch from the shared fleet.Manager — all-or-none under
//     fair-share arbitration;
//   - the fleet layer: device health tracking, quarantine of tampering
//     GPUs (attributed via the redundant decoding), straggler-tolerant
//     quorum dispatch and speculative re-dispatch (internal/fleet);
//   - metrics: throughput, latency quantiles, queue depth, occupancy,
//     per-tenant usage and the fleet health snapshot.
//
// Integrity faults (a tampering GPU caught by the redundant decoding)
// surface as per-request errors wrapping masking.ErrIntegrity — unless
// Recover is enabled (Redundancy >= 2), in which case the batch is decoded
// from the clean equations and only the culprit device pays.
package serve

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"darknight/internal/enclave"
	"darknight/internal/fleet"
	"darknight/internal/nn"
	"darknight/internal/obs"
	"darknight/internal/resil"
	"darknight/internal/sched"
)

// ErrClosed is returned for requests submitted after Close.
var ErrClosed = errors.New("serve: server closed")

// ErrBadImage is returned when a request's image does not match the model
// input geometry.
var ErrBadImage = errors.New("serve: image does not match model input shape")

// DefaultTenant is the tenant requests are charged to when the caller does
// not name one.
const DefaultTenant = "default"

// Config tunes the serving layer. The privacy/integrity operating point
// lives in Sched; fleet health/fairness knobs live on the fleet.Manager.
type Config struct {
	// Sched is the pipeline operating point (K, M, E, quantization,
	// straggler slack, seed). VirtualBatch must be >= 1.
	Sched sched.Config
	// MaxWait bounds how long an admitted request may wait for K-1 peers
	// before the batcher flushes a padded partial batch. A request context
	// with an earlier deadline shortens the wait for its batch. <= 0
	// flushes immediately (every batch carries exactly one real row).
	MaxWait time.Duration
	// Recover enables audit-and-recover on integrity violations: tampered
	// batches are decoded from the clean equations instead of failing, and
	// the attributed culprit is quarantined. Requires Sched.Redundancy >= 2.
	Recover bool
	// PipelineDepth is how many virtual batches each worker keeps in flight
	// at once (<= 1 means one): at depth d up to d batches ride the
	// encode→dispatch→decode stages together, each under its own gang
	// grant, so the TEE and the GPUs stay busy simultaneously. Outputs are
	// bit-identical whatever the depth (exact decoding over F_p).
	PipelineDepth int
	// Continuous enables continuous batching: a flushed padded batch that
	// no worker has picked up yet keeps accepting same-tenant riders in
	// place of its pad rows — the batch seals at worker pickup, not at
	// flush. Strictly fewer pad rows under load at identical privacy (a
	// rider replaces a dummy row before anything is encoded; the batch
	// still carries exactly K rows of one tenant).
	Continuous bool
	// Obs, when non-nil, attaches the observability stack: sampled request
	// traces (admit→seal→batch→offload span trees), the serving/fleet/
	// resilience series exported from Obs.Registry, the completed-batch log
	// behind CaptureSnapshot, and fleet/sched events recorded into
	// Obs.Recorder. One Observability per server — series registration
	// panics on duplicates. Nil serves untraced; the serving instruments
	// behind Metrics() then live in a registry private to the server.
	Obs *obs.Observability
	// SLO configures per-tenant objectives evaluated by an obs.SLOTracker
	// (burn-rate gauges, breach events into the fleet). With no objectives
	// the tracker is not built.
	SLO obs.SLOConfig
	// Resil configures the resilience layer: deadline budgets, retry onto
	// fresh gangs, hedged dispatch, admission control and the brownout
	// degradation controller. The zero value disables all of it and the
	// hot path stays at its previous cost.
	Resil resil.Config
}

// result is what a worker delivers back to one waiting request.
type result struct {
	class int
	err   error
}

// request is one admitted inference job.
type request struct {
	tenant   string
	image    []float64
	enqueued time.Time
	flushBy  time.Time // batching deadline: enqueued+MaxWait or budget share
	// deadline is the absolute end-to-end deadline (caller context
	// deadline, or the budget default); zero = unbounded. A request whose
	// deadline passes before dispatch is failed with resil.ErrDeadline
	// instead of riding a gang it can no longer use.
	deadline time.Time
	done     chan result

	// sp is the request's sampled root span (nil when unsampled — every
	// span operation then no-ops); asp is its "admit" child, open from
	// enqueue until the batcher flushes the request into a virtual batch.
	sp, asp *obs.Span
}

// Server is a concurrent private-inference service over one managed GPU
// fleet.
type Server struct {
	cfg    Config
	k      int
	imgLen int
	fleet  *fleet.Manager
	pipes  []*sched.Pipeline // one per worker

	admit    chan *request
	batches  chan *vbatch
	metrics  *Metrics
	obs      *obs.Observability
	batchlog *batchLog

	// Resilience layer (PR9). rcount/shedder always exist (nil-safe and
	// cheap); hedge/brown only when the matching policy is on.
	resil   resil.Config
	rcount  *resil.Counters
	shedder *resil.Shedder
	hedge   *resil.HedgeGovernor
	brown   *resil.Brownout
	// flushFactor (Float64bits) scales MaxWait and depthLimit caps the
	// effective pipeline depth — the brownout actuators.
	flushFactor atomic.Uint64
	depthLimit  atomic.Int32

	gate closeGate
	wg   sync.WaitGroup
}

// New assembles and starts a server over a managed fleet. models supplies
// one private replica per worker (nn layers cache forward state, so
// replicas are not shared); all replicas must have identical input geometry
// and should carry identical weights. The enclave may be nil or shared —
// its accounting is thread-safe, modelling one EPC budget shared by the
// TEE threads.
func New(cfg Config, models []*nn.Model, fm *fleet.Manager, encl *enclave.Enclave) (*Server, error) {
	if len(models) == 0 {
		return nil, fmt.Errorf("serve: need at least one worker model")
	}
	if cfg.Recover && cfg.Sched.Redundancy < 2 {
		return nil, fmt.Errorf("serve: Recover needs Redundancy >= 2, have %d", cfg.Sched.Redundancy)
	}
	if cfg.Resil.Brownout.Enabled && len(cfg.SLO.Objectives) == 0 {
		// Brownout consumes SLO breach events; without objectives the
		// controller would never engage.
		return nil, fmt.Errorf("serve: brownout needs SLO objectives to consume (Config.SLO)")
	}
	if cfg.PipelineDepth < 1 {
		cfg.PipelineDepth = 1
	}
	lanes := cfg.PipelineDepth
	if cfg.Resil.Hedge.Enabled {
		lanes++ // the spare lane a hedge flies on; admission stays at PipelineDepth
	}
	var pipes []*sched.Pipeline
	for i, m := range models {
		// Each worker draws its own coding randomness: reusing one RNG
		// stream across workers would emit identical noise vectors and
		// coefficients for different clients' batches at the same step,
		// letting an observer of two gangs cancel the masking noise.
		// (Pipeline lanes stride further apart internally.)
		wcfg := cfg.Sched
		wcfg.Seed += int64(i)
		p, err := sched.NewPipeline(wcfg, m, encl, "", lanes)
		if err == nil && cfg.Recover {
			if err = p.EnableRecovery(); err != nil {
				p.Close()
			}
		}
		if err != nil {
			closePipes(pipes)
			return nil, err
		}
		pipes = append(pipes, p)
	}
	gang, k := pipes[0].Gang(), pipes[0].Config().VirtualBatch
	if gang > fm.Cluster().Size() {
		closePipes(pipes)
		return nil, fmt.Errorf("serve: gang of K+M+E = %d devices exceeds fleet of %d",
			gang, fm.Cluster().Size())
	}
	shape := models[0].InShape
	imgLen := 1
	for _, d := range shape {
		imgLen *= d
	}
	for _, m := range models[1:] {
		if fmt.Sprint(m.InShape) != fmt.Sprint(shape) {
			closePipes(pipes)
			return nil, fmt.Errorf("serve: worker models disagree on input shape")
		}
	}
	depth := 4 * k // the admission queue; Infer blocks (or honors its context) when it is full
	// The serving instruments are the store behind Metrics() whether or
	// not anything scrapes them.
	reg := cfg.Obs.Reg()
	if reg == nil {
		reg = obs.NewRegistry()
	}
	s := &Server{
		cfg:     cfg,
		k:       k,
		imgLen:  imgLen,
		fleet:   fm,
		pipes:   pipes,
		admit:   make(chan *request, depth),
		batches: make(chan *vbatch, len(models)),
		metrics: newMetrics(k, reg),
		obs:     cfg.Obs,
		resil:   cfg.Resil,
		rcount:  &resil.Counters{},
		shedder: resil.NewShedder(cfg.Resil.Shed),
	}
	s.flushFactor.Store(math.Float64bits(1))
	if cfg.Resil.Hedge.Enabled {
		s.hedge = resil.NewHedgeGovernor(cfg.Resil.Hedge)
	}
	s.registerViews(reg)
	if len(cfg.SLO.Objectives) > 0 {
		s.metrics.slo = obs.NewSLOTracker(cfg.SLO)
		s.metrics.slo.Register(reg)
		fm.SubscribeSLO(s.metrics.slo)
	}
	if cfg.Resil.Brownout.Enabled {
		var rec *obs.FlightRecorder
		if s.obs != nil {
			rec = s.obs.Recorder
		}
		s.brown = resil.NewBrownout(cfg.Resil.Brownout, rec, s.rcount)
		s.brown.OnChange(s.applyBrownout)
		s.brown.Subscribe(s.metrics.slo)
	}
	if s.obs != nil {
		// Wire the observability stack: the fleet and every engine record
		// into the shared flight recorder, and the fleet and resilience
		// counters join the serving instruments in the registry.
		fm.SetObserver(s.obs.Recorder)
		for _, p := range pipes {
			p.SetObserver(s.obs.Recorder)
		}
		fm.RegisterMetrics(reg)
		s.rcount.Register(reg)
		s.brown.Register(reg)
		s.batchlog = newBatchLog()
	}
	s.wg.Add(1)
	go s.batchLoop()
	for _, p := range pipes {
		s.wg.Add(1)
		go s.runWorker(p)
	}
	return s, nil
}

// closePipes stops the background noise generators of partially built
// pipelines on a construction error path.
func closePipes(pipes []*sched.Pipeline) {
	for _, p := range pipes {
		p.Close()
	}
}

// Metrics returns the serving view: the serving instruments, plus the
// stores other layers own read at the same moment — the pipelines' phase
// and noise-pool counters, the fleet health snapshot, the resilience
// counters and the brownout controller's level.
func (s *Server) Metrics() Snapshot {
	snap := s.metrics.Snapshot()
	snap.Phases = s.phaseStats()
	snap.Overlap = snap.Phases.Overlap()
	snap.NoisePool = s.poolStats()
	snap.Fleet = s.fleet.Stats()
	snap.Resil = s.rcount.Snapshot()
	snap.Resil.BrownoutLevel = int64(s.brown.Level())
	return snap
}

// Infer privately classifies one image for the default tenant.
func (s *Server) Infer(ctx context.Context, image []float64) (int, error) {
	return s.InferTenant(ctx, DefaultTenant, image)
}

// InferTenant privately classifies one image on behalf of a named tenant.
// It blocks until the request is batched, dispatched and decoded, or until
// ctx is done. The image never leaves the TEE uncoded; it is only ever
// batched with rows of the same tenant, and the batch's device time is
// charged to the tenant's fair-share account. An integrity violation on
// the request's batch is reported as an error wrapping masking.ErrIntegrity
// (unless recovery absorbs it).
func (s *Server) InferTenant(ctx context.Context, tenant string, image []float64) (int, error) {
	if len(image) != s.imgLen {
		return 0, fmt.Errorf("%w: got %d elements, model wants %d", ErrBadImage, len(image), s.imgLen)
	}
	if tenant == "" {
		tenant = DefaultTenant
	}
	if !s.gate.enter() {
		return 0, ErrClosed
	}
	// Admission control: shed before any work when the tenant's queue
	// allowance is full (typed resil.ErrShed; the client never blocks).
	if err := s.shedder.Admit(tenant, int(s.metrics.depth.Value())); err != nil {
		s.gate.leave()
		s.rcount.Shed.Add(1)
		s.recordResil(obs.KindShed, tenant, "admission queue allowance full")
		return 0, err
	}
	now := time.Now()
	// Deadline budget: the caller's context deadline (or the configured
	// default) is the absolute end-to-end bound; the batching phase may
	// spend at most its budget share waiting for peers.
	cd, hasCD := ctx.Deadline()
	deadline := s.resil.Budget.Deadline(now, cd, hasCD)
	maxWait := s.effMaxWait()
	var flushBy time.Time
	if s.resil.Budget.Enabled() {
		flushBy = s.resil.Budget.FlushBy(now, deadline, maxWait)
	} else {
		// Legacy split: the whole remaining budget may be spent batching.
		flushBy = now.Add(maxWait)
		if hasCD && cd.Before(flushBy) {
			flushBy = cd
		}
	}
	r := &request{tenant: tenant, image: image, enqueued: now, flushBy: flushBy,
		deadline: deadline, done: make(chan result, 1)}
	// Sampled tracing: the root span covers the request end to end; the
	// "admit" child covers queueing until the batcher flushes it. A nil
	// span (tracing off, or the sampling draw declined) no-ops throughout.
	r.sp = s.obs.StartTrace("request")
	r.sp.Annotate("tenant", tenant)
	r.asp = r.sp.Child("admit")
	// The gauge moves before the send: the batcher may flush (and
	// decrement) the moment the request lands, so counting afterwards
	// could read negative.
	s.metrics.depth.Add(1)
	select {
	case s.admit <- r:
		s.gate.leave()
	case <-ctx.Done():
		s.metrics.depth.Add(-1)
		s.gate.leave()
		r.sp.Annotate("outcome", "cancelled-in-admit")
		r.sp.End()
		return 0, ctx.Err()
	}
	select {
	case res := <-r.done:
		r.sp.End()
		if res.err != nil {
			return 0, res.err
		}
		return res.class, nil
	case <-ctx.Done():
		// The batch may still complete; its result is discarded.
		r.sp.Annotate("outcome", "cancelled-in-flight")
		r.sp.End()
		return 0, ctx.Err()
	}
}

// Close drains the service: admitted requests are still dispatched (final
// partial batches are padded and flushed), then workers exit and the
// background noise generators stop. Infer calls after Close fail with
// ErrClosed. Close blocks until the drain completes.
func (s *Server) Close() {
	if !s.gate.close() {
		return // already closed
	}
	close(s.admit)
	s.wg.Wait()
	closePipes(s.pipes)
}

// ResilCounters exposes the resilience accounting (always non-nil).
func (s *Server) ResilCounters() *resil.Counters { return s.rcount }

// BrownoutLevel returns the current degradation level (0 when the
// controller is off or at full service).
func (s *Server) BrownoutLevel() int { return s.brown.Level() }

// effMaxWait is the brownout-scaled batching window: at degradation the
// flush window shrinks, so batches seal with fewer real rows (a smaller
// effective K) and per-request latency drops at the cost of padding.
func (s *Server) effMaxWait() time.Duration {
	f := math.Float64frombits(s.flushFactor.Load())
	if f >= 1 || f <= 0 {
		return s.cfg.MaxWait
	}
	return time.Duration(float64(s.cfg.MaxWait) * f)
}

// effDepth is the brownout-capped pipeline depth: how many batches a
// worker admits at once.
func (s *Server) effDepth() int {
	d := s.cfg.PipelineDepth
	if lim := int(s.depthLimit.Load()); lim > 0 && lim < d {
		d = lim
	}
	return d
}

// applyBrownout is the degradation actuator, invoked by the controller on
// every level transition. The structural coding point (K, M, E) is fixed
// — instead the actuators trade serving headroom: shorter flush windows
// (smaller effective batches → lower latency, more padding), hedging off
// (duplicate flights are the first capacity returned), tighter admission
// allowances, and a shallower effective pipeline.
func (s *Server) applyBrownout(level int) {
	flushF, shedF := 1.0, 1.0
	var depthLim int32
	hedgeOff := false
	switch {
	case level <= 0:
	case level == 1:
		flushF, hedgeOff = 0.5, true
	case level == 2:
		flushF, shedF, hedgeOff = 0.5, 0.5, true
		depthLim = int32((s.cfg.PipelineDepth + 1) / 2)
	default:
		flushF, shedF, hedgeOff, depthLim = 0.25, 0.25, true, 1
	}
	s.flushFactor.Store(math.Float64bits(flushF))
	s.shedder.SetFactor(shedF)
	s.hedge.SetDisabled(hedgeOff)
	s.depthLimit.Store(depthLim)
}

// recordResil emits one resilience event into the flight recorder (no-op
// without observability).
func (s *Server) recordResil(kind, tenant, detail string) {
	if s.obs == nil {
		return
	}
	s.obs.Recorder.Record(obs.Event{Kind: kind, Subsystem: "resil",
		Device: -1, Slot: -1, Tenant: tenant, Detail: detail})
}

// closeGate lets Close wait out in-flight admissions before closing the
// admit channel, so Infer never sends on a closed channel.
type closeGate struct {
	mu       sync.Mutex
	closed   bool
	inflight sync.WaitGroup
}

func (g *closeGate) enter() bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.closed {
		return false
	}
	g.inflight.Add(1)
	return true
}

func (g *closeGate) leave() { g.inflight.Done() }

// close marks the gate closed and waits for entered admissions to leave.
// Returns false if the gate was already closed.
func (g *closeGate) close() bool {
	g.mu.Lock()
	if g.closed {
		g.mu.Unlock()
		return false
	}
	g.closed = true
	g.mu.Unlock()
	g.inflight.Wait()
	return true
}
