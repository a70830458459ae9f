package sched

import (
	"fmt"
	"time"

	"darknight/internal/enclave"
	"darknight/internal/masking"
	"darknight/internal/nn"
	"darknight/internal/obs"
	"darknight/internal/tensor"
)

// Pipeline is the forward-only runtime: up to Depth virtual batches ride
// the encode→dispatch→decode stages at once, so the TEE and the GPU gang
// stay busy simultaneously instead of taking turns — while batch i is in
// GPU flight, the TEE decodes batch i−1 and encodes batch i+1. Depth is a
// number, not a mode: a depth-1 Pipeline is the serial runtime.
//
// Each in-flight batch owns a lane (see lanes): TEE work stays strictly
// serialised under the shared token — one enclave context, bit-for-bit the
// serial schedule per batch — while device time overlaps across lanes.
// Because the decode is exact linear algebra over F_p, a batch's outputs
// depend only on its own inputs and the weights, never on the noise values
// or coefficient draws: predictions are bit-identical whatever the depth
// and equal to internal/spec/stack's, which has no coding at all (pinned by
// TestPipelineMatchesSerial).
type Pipeline struct {
	*lanes
	model *nn.Model
}

// NewPipeline wires a forward runtime of the given depth (>= 1; 2 is
// classic double buffering) around one shared model replica; see newLanes
// for the enclave contract. The string is unused: it remains only because
// the benchmark harness under bench/ still passes it.
//
// Fleets passed to Submit must tolerate overlapping dispatches:
// *gpu.Cluster and *fleet.Grant both do (any number of flights open at once).
func NewPipeline(cfg Config, model *nn.Model, encl *enclave.Enclave, _ string, depth int) (*Pipeline, error) {
	l, err := newLanes(cfg, model, encl, depth)
	if err != nil {
		return nil, err
	}
	return &Pipeline{lanes: l, model: model}, nil
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
	return p.SubmitWithin(fleet, images, nil, time.Time{})
}

// SubmitWithin is Submit with a trace span and a deadline budget. The
// batch's offload encode/dispatch/decode children hang off sp, annotated
// with the lane that carried it. The lane re-checks the absolute deadline
// before every gang dispatch and fails the batch with an error matching
// context.DeadlineExceeded once it passes. A nil sp and the zero time are
// exactly Submit.
func (p *Pipeline) SubmitWithin(fleet Fleet, images [][]float64, sp *obs.Span, deadline time.Time) (*Ticket, error) {
	k := p.cfg.VirtualBatch
	if len(images) != k {
		return nil, fmt.Errorf("sched: inference needs exactly %d images, got %d", k, len(images))
	}
	for _, img := range images {
		if err := p.model.CheckImage(img); err != nil {
			return nil, err
		}
	}
	if need := p.Gang(); fleet.Size() < need {
		return nil, fmt.Errorf("sched: gang of %d devices required, fleet has %d", need, fleet.Size())
	}
	if p.isClosed() {
		return nil, fmt.Errorf("sched: pipeline closed")
	}
	lane := p.acquire(fleet)
	lane.trace(sp)
	lane.deadline = deadline
	t := &Ticket{done: make(chan struct{})}
	go p.run(lane, images, t)
	return t, nil
}

// run drives one batch down a lane: lane-private setup without the token —
// the code and the batch's gang flight — then the forward walk under the
// TEE token (released by the engine while a layer is on the devices). The
// flight ends before the ticket completes, so the caller can release the
// gang as soon as the batch is done.
func (p *Pipeline) run(lane *engine, images [][]float64, t *Ticket) {
	code, err := masking.New(lane.cfg.maskParams(), lane.rng)
	if err == nil {
		err = lane.openBatchFlight(false)
	}
	if err == nil {
		lane.lockTEE()
		var logits []*tensor.Tensor
		logits, _, err = lane.forwardLayer(code, p.model.Stack, lane.mem.inputs(images, p.model.InShape), false)
		t.culprits = append([]int(nil), lane.stepCulprits...)
		p.tee.Unlock()
		if err == nil {
			// The logits are the lane's batch memory, recycled by its next
			// batch: the ticket keeps copies.
			t.logits = make([]*tensor.Tensor, len(logits))
			for i, l := range logits {
				t.logits[i] = l.Clone()
			}
		}
	}
	lane.endBatchFlight()
	if err == nil {
		t.classes = make([]int, len(t.logits))
		for i := range t.logits {
			t.classes[i] = nn.Argmax(t.logits[i])
		}
	}
	t.err = err
	p.release(lane)
	close(t.done)
}
