package sched

import (
	"fmt"
	"sync"
	"time"

	"darknight/internal/enclave"
	"darknight/internal/masking"
	"darknight/internal/nn"
	"darknight/internal/obs"
)

// lanes is the machinery Pipeline and TrainPipeline sit on: depth engines
// (the lanes) around one shared model replica, each with its own arena,
// scratch buffers, RNG stream and device-storage keyspace; one TEE
// execution token the engines hold for every enclave-side step and release
// exactly while a layer is in device flight (see engine.gather); one seeded
// NoisePool pre-drawing the model's noise cycle for all of them; and the
// busy wall-clock the overlap ratio is measured against. Depth 1 is the
// serial runtime: one lane, a token nobody contends for.
type lanes struct {
	cfg  Config
	tee  sync.Mutex   // the single TEE execution token
	free chan *engine // free lanes; capacity == depth bounds the pipeline
	all  []*engine    // every lane, index == engine.lane
	pool *masking.NoisePool

	mu        sync.Mutex
	phases    PhaseStats // folded lane counters + busy wall-clock
	active    int        // batches currently in flight
	busySince time.Time  // start of the current busy interval
	closed    bool
}

// newLanes builds depth lanes over one model replica. The enclave may be
// nil or shared; each in-flight batch accounts its own working set, so peak
// enclave usage grows with depth — the memory cost the paper's K-vs-EPC
// tradeoff describes. keyspace must be unique among runtimes sharing
// physical devices; lanes suffix it so their device-side storage never
// aliases. reuseKeys marks a forward-only runtime (see engine.reuseKeys).
func newLanes(cfg Config, model *nn.Model, encl *enclave.Enclave, keyspace string, depth int, reuseKeys bool) (*lanes, error) {
	cfg = cfg.withDefaults()
	if err := cfg.maskParams().Validate(); err != nil {
		return nil, err
	}
	if depth < 1 {
		return nil, fmt.Errorf("sched: pipeline depth %d, need >= 1", depth)
	}
	l := &lanes{
		cfg:  cfg,
		free: make(chan *engine, depth),
		all:  make([]*engine, depth),
	}
	if lens := offloadLens(model); len(lens) > 0 {
		// One cycle of pre-drawn sets per lane plus one of prefetch keeps
		// the generator ahead of the consumers in steady state (the backward
		// pass consumes none).
		l.pool = masking.NewNoisePool(cfg.Seed+0x0ff1e, cfg.Collusion, lens, (depth+1)*len(lens))
	}
	for i := range l.all {
		lcfg := cfg
		// Distinct RNG streams per lane: two lanes must never emit the same
		// noise/coefficients for different batches (decode exactness makes
		// the outputs independent of them, but privacy demands fresh draws —
		// the same argument as per-worker seeds in internal/serve).
		lcfg.Seed = cfg.Seed + int64(i)*0x9e37
		eng := newEngine(lcfg, model, encl, fmt.Sprintf("%s%d/", keyspace, i))
		eng.reuseKeys = reuseKeys
		eng.lane = i
		eng.tee = &l.tee
		eng.pool = l.pool
		l.all[i] = &eng
		l.free <- &eng
	}
	return l, nil
}

// offloadLens returns the input length of every offloaded (bilinear)
// layer in forward order — the per-layer noise-vector lengths a NoisePool
// pre-draws, in exactly the order the engine consumes them.
func offloadLens(model *nn.Model) []int {
	var lens []int
	for _, lin := range model.LinearLayers() {
		lens = append(lens, lin.InLen())
	}
	return lens
}

// Config returns the effective configuration.
func (l *lanes) Config() Config { return l.cfg }

// Depth returns the number of batches the runtime can hold in flight.
func (l *lanes) Depth() int { return len(l.all) }

// Gang returns the number of devices one dispatch occupies: K+M+E.
func (l *lanes) Gang() int { return l.cfg.maskParams().GPUs() }

// EnableRecovery turns on audit-and-recover on every lane: instead of
// failing the batch, a tampered dispatch is re-decoded from the clean
// equations and the culprit slots are recorded on the batch's ticket.
// Requires Redundancy >= 2 — attribution needs a second redundant equation.
func (l *lanes) EnableRecovery() error {
	if l.cfg.Redundancy < 2 {
		return fmt.Errorf("sched: recovery needs Redundancy >= 2, have %d", l.cfg.Redundancy)
	}
	for _, lane := range l.all {
		lane.recover = true
	}
	return nil
}

// SetObserver attaches a flight recorder to every lane: integrity
// verdicts and noise-pool fallbacks are recorded as they happen. Call
// before traffic starts.
func (l *lanes) SetObserver(rec *obs.FlightRecorder) {
	for _, lane := range l.all {
		lane.rec = rec
	}
}

// PhaseStats returns the aggregated encode/dispatch/decode breakdown
// across all lanes plus the busy wall-clock; Overlap() on the result is
// the headline overlap ratio.
func (l *lanes) PhaseStats() PhaseStats {
	l.mu.Lock()
	defer l.mu.Unlock()
	s := l.phases
	if l.active > 0 {
		s.Wall += time.Since(l.busySince)
	}
	return s
}

// PoolStats returns the shared noise pool's hit/miss counters.
func (l *lanes) PoolStats() masking.NoisePoolStats {
	if l.pool == nil {
		return masking.NoisePoolStats{}
	}
	return l.pool.Stats()
}

// RegisterPoolMetrics exports a runtime's noise-pool counters, read through
// stats at scrape time — the one registration of the darknight_noisepool_*
// families, shared by the serving and training facades.
func RegisterPoolMetrics(r *obs.Registry, stats func() masking.NoisePoolStats) {
	r.CounterFunc("darknight_noisepool_hits_total",
		"Encodes served from precomputed noise material.",
		func() float64 { return float64(stats().Hits) })
	r.CounterFunc("darknight_noisepool_misses_total",
		"Encodes that found the noise ring empty and drew inline — nonzero and growing means the pool is undersized.",
		func() float64 { return float64(stats().Misses) })
}

// Close stops the background noise generator. In-flight batches finish;
// further submissions fail. Safe to call more than once.
func (l *lanes) Close() {
	l.mu.Lock()
	already := l.closed
	l.closed = true
	l.mu.Unlock()
	if !already && l.pool != nil {
		l.pool.Close()
	}
}

func (l *lanes) isClosed() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.closed
}

// acquire blocks until a lane is free and binds it to one batch: its gang
// and a fresh key namespace. The caller runs the batch under lockTEE and
// hands the lane back with release.
func (l *lanes) acquire(fleet Fleet) *engine {
	lane := <-l.free
	l.noteStart()
	lane.fleet = fleet
	lane.beginStep()
	return lane
}

// trace installs the batch's trace span on its lane, annotated with the
// lane that carries it. A nil span traces nothing at no cost.
func (e *engine) trace(sp *obs.Span) {
	if sp != nil {
		sp.Annotatef("lane", "%d", e.lane)
	}
	e.sp = sp
}

// release unbinds a lane from its finished batch — span and deadline are
// cleared before the lane re-enters the free list, because the next batch
// installs its own immediately — and folds the phase time the batch spent.
func (l *lanes) release(lane *engine) {
	lane.fleet = nil
	lane.sp = nil
	lane.deadline = time.Time{}
	l.addPhases(lane)
	l.free <- lane
	l.noteEnd()
}

// noteStart/noteEnd maintain the busy wall-clock: the union of intervals
// during which at least one batch is in flight. The phase sums divided by
// this wall time is the overlap ratio.
func (l *lanes) noteStart() {
	l.mu.Lock()
	if l.active == 0 {
		l.busySince = time.Now()
	}
	l.active++
	l.mu.Unlock()
}

func (l *lanes) noteEnd() {
	l.mu.Lock()
	l.active--
	if l.active == 0 {
		l.phases.Wall += time.Since(l.busySince)
	}
	l.mu.Unlock()
}

// addPhases moves what a lane's counters gained on its batch into the
// aggregate. A lane never advances its own Wall — busy-interval accounting
// owns it.
func (l *lanes) addPhases(lane *engine) {
	l.mu.Lock()
	l.phases = l.phases.Add(lane.phases)
	l.mu.Unlock()
	lane.phases = PhaseStats{}
}
