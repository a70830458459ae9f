package sched

import (
	"fmt"
	"sync"
	"time"

	"darknight/internal/enclave"
	"darknight/internal/masking"
	"darknight/internal/nn"
	"darknight/internal/obs"
	"darknight/internal/tensor"
)

// Pipeline is the overlapped-execution mode of the forward runtime: up to
// Depth virtual batches ride the encode→dispatch→decode stages at once, so
// the TEE and the GPU gang stay busy simultaneously instead of taking
// turns. While batch i is in GPU flight, the TEE decodes batch i−1 and
// encodes batch i+1.
//
// Mechanically, each in-flight batch owns a lane: a full engine with its
// own arena, scratch buffers and RNG (the double-buffered arenas), all
// lanes sharing one model replica and one TEE execution token. A lane
// holds the token for every enclave-side step and releases it exactly for
// the duration of a dispatch's GPU flight (see engine.offloadForward), so
// TEE work remains strictly serialized — one enclave context, bit-for-bit
// the serial schedule per batch — while device time overlaps across lanes.
// Because the decode is exact linear algebra over F_p, a batch's outputs
// depend only on its own inputs and the weights, never on the noise values
// or coefficient draws: pipelined predictions are bit-identical to the
// serial engine's (pinned by TestPipelineMatchesSerial).
//
// Noise is pre-drawn offline: the Pipeline owns a seeded masking.NoisePool
// sized for the model's offloaded layers, shared by all lanes, so the
// online encode consumes precomputed material with zero RNG work and falls
// back (counted) only when the generator is behind.
type Pipeline struct {
	cfg   Config
	model *nn.Model
	depth int

	tee   sync.Mutex   // the single TEE execution token
	lanes chan *engine // free lanes; capacity == depth bounds the pipeline
	all   []*engine    // every lane, for configuration fan-out
	pool  *masking.NoisePool

	mu        sync.Mutex
	phases    PhaseStats // folded lane deltas + busy wall-clock
	active    int        // batches currently in flight
	busySince time.Time  // start of the current busy interval
	closed    bool
}

// NewPipeline wires a pipelined forward runtime of the given depth (>= 2;
// 2 is classic double buffering) around one shared model replica. The
// enclave may be nil or shared; each in-flight batch accounts its own
// working set, so peak enclave usage grows with depth — exactly the memory
// cost the paper's K-vs-EPC tradeoff describes. keyspace must be unique
// among runtimes sharing physical devices; lanes suffix it so their
// device-side storage never aliases.
//
// Fleets passed to Submit must tolerate overlapping dispatches:
// *gpu.Cluster and *fleet.Grant both do (any number of flights open at once).
func NewPipeline(cfg Config, model *nn.Model, encl *enclave.Enclave, keyspace string, depth int) (*Pipeline, error) {
	cfg = cfg.withDefaults()
	if err := cfg.maskParams().Validate(); err != nil {
		return nil, err
	}
	if depth < 2 {
		return nil, fmt.Errorf("sched: pipeline depth %d, need >= 2 (use Inferencer for serial execution)", depth)
	}
	p := &Pipeline{
		cfg:   cfg,
		model: model,
		depth: depth,
		lanes: make(chan *engine, depth),
		all:   make([]*engine, 0, depth),
	}
	lens := offloadLens(model.Stack)
	if len(lens) > 0 {
		// One cycle of pre-drawn sets per lane plus one of prefetch keeps
		// the generator ahead of the consumers in steady state.
		p.pool = masking.NewNoisePool(cfg.Seed+0x0ff1e, cfg.Collusion, lens, (depth+1)*len(lens))
	}
	for i := 0; i < depth; i++ {
		lcfg := cfg
		// Distinct RNG streams per lane: two lanes must never emit the same
		// noise/coefficients for different clients' batches (the same
		// argument as per-worker seeds in internal/serve).
		lcfg.Seed = cfg.Seed + int64(i)*0x9e37
		eng := newEngine(lcfg, model, nil, encl, fmt.Sprintf("%sp%d/", keyspace, i))
		eng.reuseKeys = true
		eng.tee = &p.tee
		eng.pool = p.pool
		lane := &eng
		p.all = append(p.all, lane)
		p.lanes <- lane
	}
	return p, nil
}

// Config returns the effective configuration.
func (p *Pipeline) Config() Config { return p.cfg }

// Depth returns the number of batches the pipeline can hold in flight.
func (p *Pipeline) Depth() int { return p.depth }

// Gang returns the number of devices one dispatch occupies: K+M+E.
func (p *Pipeline) Gang() int { return p.cfg.maskParams().GPUs() }

// EnableRecovery turns on audit-and-recover on every lane (see
// Inferencer.EnableRecovery). Requires Redundancy >= 2.
func (p *Pipeline) EnableRecovery() error {
	if p.cfg.Redundancy < 2 {
		return fmt.Errorf("sched: recovery needs Redundancy >= 2, have %d", p.cfg.Redundancy)
	}
	for _, lane := range p.all {
		lane.recover = true
	}
	return nil
}

// SetObserver attaches a flight recorder to every lane: cache refills and
// integrity verdicts are recorded as they happen. Call before Submit
// traffic starts.
func (p *Pipeline) SetObserver(rec *obs.FlightRecorder) {
	for _, lane := range p.all {
		lane.rec = rec
	}
}

// PhaseStats returns the aggregated encode/dispatch/decode breakdown
// across all lanes plus the pipeline's busy wall-clock; Overlap() on the
// result is the headline overlap ratio.
func (p *Pipeline) PhaseStats() PhaseStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	s := p.phases
	if p.active > 0 {
		s.Wall += time.Since(p.busySince)
	}
	return s
}

// PoolStats returns the shared noise pool's hit/miss counters.
func (p *Pipeline) PoolStats() masking.NoisePoolStats {
	if p.pool == nil {
		return masking.NoisePoolStats{}
	}
	return p.pool.Stats()
}

// Close stops the background noise generator. In-flight batches finish;
// further Submits fail. Safe to call more than once.
func (p *Pipeline) Close() {
	p.mu.Lock()
	already := p.closed
	p.closed = true
	p.mu.Unlock()
	if !already && p.pool != nil {
		p.pool.Close()
	}
}

// Ticket is the completion handle of one submitted virtual batch.
type Ticket struct {
	done     chan struct{}
	logits   []*tensor.Tensor
	classes  []int
	culprits []int
	err      error
}

// Done returns a channel closed when the batch has fully decoded — for
// callers multiplexing several tickets in a select.
func (t *Ticket) Done() <-chan struct{} { return t.done }

// Wait blocks until the batch completes and returns its error.
func (t *Ticket) Wait() error {
	<-t.done
	return t.err
}

// Classes returns the predicted class per image. Valid after Wait/Done.
func (t *Ticket) Classes() []int {
	<-t.done
	return t.classes
}

// Logits returns the per-image logits. Valid after Wait/Done.
func (t *Ticket) Logits() []*tensor.Tensor {
	<-t.done
	return t.logits
}

// Culprits returns the gang slots attributed as tampering while this batch
// was processed (empty when clean). Valid after Wait/Done.
func (t *Ticket) Culprits() []int {
	<-t.done
	return t.culprits
}

// Submit enters one virtual batch of exactly K images into the pipeline on
// the given fleet and returns its completion ticket. Submit blocks only
// while all Depth lanes are busy — that backpressure is what bounds the
// pipeline. Batches may complete out of submission order; each ticket is
// independent.
//
// Callers pipelining over a shared physical fleet typically pass a
// separate gang (e.g. a fleet.Grant) per Submit so the flights genuinely
// overlap; passing the same fleet for every Submit is correct too, as long
// as it tolerates concurrent dispatches.
func (p *Pipeline) Submit(fleet Fleet, images [][]float64) (*Ticket, error) {
	return p.SubmitTraced(fleet, images, nil)
}

// SubmitTraced is Submit with a trace span: the batch's offload
// encode/dispatch/decode children hang off sp, annotated with the lane
// that carried it. A nil sp is exactly Submit.
func (p *Pipeline) SubmitTraced(fleet Fleet, images [][]float64, sp *obs.Span) (*Ticket, error) {
	return p.SubmitWithin(fleet, images, sp, time.Time{})
}

// SubmitWithin is SubmitTraced with a deadline budget: the lane re-checks
// the absolute deadline before every gang dispatch and fails the batch
// with an error matching context.DeadlineExceeded once it passes. The
// zero time is exactly SubmitTraced.
func (p *Pipeline) SubmitWithin(fleet Fleet, images [][]float64, sp *obs.Span, deadline time.Time) (*Ticket, error) {
	k := p.cfg.VirtualBatch
	if len(images) != k {
		return nil, fmt.Errorf("sched: inference needs exactly %d images, got %d", k, len(images))
	}
	if need := p.Gang(); fleet.Size() < need {
		return nil, fmt.Errorf("sched: gang of %d devices required, fleet has %d", need, fleet.Size())
	}
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil, fmt.Errorf("sched: pipeline closed")
	}
	p.mu.Unlock()
	lane := <-p.lanes
	p.noteStart()
	if sp != nil {
		for i, l := range p.all {
			if l == lane {
				sp.Annotatef("lane", "%d", i)
				break
			}
		}
	}
	t := &Ticket{done: make(chan struct{})}
	go p.run(lane, fleet, images, sp, deadline, t)
	return t, nil
}

// Predict is the synchronous convenience wrapper: Submit then Wait.
func (p *Pipeline) Predict(fleet Fleet, images [][]float64) ([]int, error) {
	t, err := p.Submit(fleet, images)
	if err != nil {
		return nil, err
	}
	if err := t.Wait(); err != nil {
		return nil, err
	}
	return t.Classes(), nil
}

// run drives one batch down a lane: lane-private setup without the token,
// then the forward walk under the TEE token (released by the engine during
// each GPU flight).
func (p *Pipeline) run(lane *engine, fleet Fleet, images [][]float64, sp *obs.Span, deadline time.Time, t *Ticket) {
	lane.fleet = fleet
	lane.sp = sp
	lane.deadline = deadline
	lane.beginStep()
	code, err := masking.New(lane.cfg.maskParams(), lane.rng)
	var logits []*tensor.Tensor
	if err == nil {
		k := lane.cfg.VirtualBatch
		xs := make([]*tensor.Tensor, k)
		for i := range images {
			xs[i] = tensor.FromSlice(images[i], p.model.InShape...)
		}
		ph0 := lane.phases
		p.tee.Lock()
		logits, _, err = lane.forwardLayer(code, p.model.Stack, xs, false)
		t.culprits = append([]int(nil), lane.stepCulprits...)
		p.tee.Unlock()
		p.addPhases(lane.phases.Sub(ph0))
	}
	lane.fleet = nil
	// Cleared before the lane re-enters the free channel: the next batch's
	// Submit may install its own span (and deadline) immediately.
	lane.sp = nil
	lane.deadline = time.Time{}
	if err == nil {
		t.logits = logits
		t.classes = make([]int, len(logits))
		for i := range logits {
			t.classes[i] = nn.Argmax(logits[i])
		}
	}
	t.err = err
	p.lanes <- lane
	p.noteEnd()
	close(t.done)
}

// noteStart/noteEnd maintain the busy wall-clock: the union of intervals
// during which at least one batch is in flight. The phase sums divided by
// this wall time is the overlap ratio.
func (p *Pipeline) noteStart() {
	p.mu.Lock()
	if p.active == 0 {
		p.busySince = time.Now()
	}
	p.active++
	p.mu.Unlock()
}

func (p *Pipeline) noteEnd() {
	p.mu.Lock()
	p.active--
	if p.active == 0 {
		p.phases.Wall += time.Since(p.busySince)
	}
	p.mu.Unlock()
}

// addPhases folds one completed batch's lane-side phase delta into the
// aggregate (Wall excluded — busy-interval accounting owns it).
func (p *Pipeline) addPhases(d PhaseStats) {
	p.mu.Lock()
	p.phases.Encode += d.Encode
	p.phases.Dispatch += d.Dispatch
	p.phases.Decode += d.Decode
	p.phases.Offloads += d.Offloads
	p.phases.Flights += d.Flights
	p.phases.FusedBlocks += d.FusedBlocks
	p.phases.FusedLayers += d.FusedLayers
	p.mu.Unlock()
}
