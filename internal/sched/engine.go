package sched

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strconv"
	"sync"
	"time"

	"darknight/internal/enclave"
	"darknight/internal/field"
	"darknight/internal/gpu"
	"darknight/internal/masking"
	"darknight/internal/nn"
	"darknight/internal/obs"
	"darknight/internal/quant"
	"darknight/internal/scratch"
	"darknight/internal/tensor"
)

// PhaseStats is the cumulative TEE-side latency breakdown of the coded hot
// path, split at the trust boundary: Encode covers quantization, the noise
// draw and the coded combine; Dispatch covers the concurrent K+M+E gang
// fan-out and gather; Decode covers verification, the inverse combine and
// float restoration. One PhaseStats accumulates per pipeline (engine);
// serving aggregates them across workers into its metrics.
type PhaseStats struct {
	Encode   time.Duration
	Dispatch time.Duration
	Decode   time.Duration
	// Wall is the pipeline's busy wall-clock: the elapsed time during which
	// at least one virtual batch was somewhere between submission and
	// completion. At depth 1 it is simply the summed per-batch time, so
	// Encode+Dispatch+Decode ≈ Wall; at greater depths overlapped batches
	// accumulate phase time faster than the clock moves, and
	// (Encode+Dispatch+Decode)/Wall is the overlap ratio — 1.0 means no
	// overlap, 2.0 means two stages were kept busy throughout.
	Wall     time.Duration
	Offloads int64 // bilinear layer dispatches timed
	// Flights counts gang flights opened: one per virtual batch, carrying
	// every offload of both passes.
	Flights int64
}

// Add returns the phase sums s + o (for aggregation across pipelines).
func (s PhaseStats) Add(o PhaseStats) PhaseStats {
	return PhaseStats{
		Encode:   s.Encode + o.Encode,
		Dispatch: s.Dispatch + o.Dispatch,
		Decode:   s.Decode + o.Decode,
		Wall:     s.Wall + o.Wall,
		Offloads: s.Offloads + o.Offloads,
		Flights:  s.Flights + o.Flights,
	}
}

// Overlap returns the overlap ratio (Encode+Dispatch+Decode)/Wall, or 0
// when no wall time has been recorded.
func (s PhaseStats) Overlap() float64 {
	if s.Wall <= 0 {
		return 0
	}
	return float64(s.Encode+s.Dispatch+s.Decode) / float64(s.Wall)
}

// Fleet is the accelerator surface the runtime dispatches coded jobs to: a
// gang of Size devices on which BeginBlock opens a flight — the only way a
// coded vector reaches a device. *gpu.Cluster is the canonical
// implementation; serving workers and fleet-managed trainers substitute a
// gang grant (*fleet.Grant) so one physical fleet can back many concurrent
// pipelines. Implementations must tolerate several flights open at once
// (pipelined lanes overlap them on one gang).
type Fleet interface {
	// Size returns the number of devices available for fan-out.
	Size() int
	// BeginBlock opens a flight over the first n devices.
	BeginBlock(n int) (*gpu.BlockFlight, error)
}

// IntegrityError is an integrity violation with (when the redundancy
// budget allows attribution) the coded columns — equivalently the gang
// device slots — that returned tampered results. It wraps
// masking.ErrIntegrity so existing errors.Is checks keep working; fleet
// layers use Culprits to quarantine the offending physical devices.
type IntegrityError struct {
	// Culprits are the faulty gang slots (coded column indices), empty
	// when the corruption was detected but not attributable (E < 2).
	Culprits []int
	// Err is the underlying masking verification error.
	Err error
}

func (e *IntegrityError) Error() string {
	if len(e.Culprits) > 0 {
		return fmt.Sprintf("sched: tampered results from gang slots %v: %v", e.Culprits, e.Err)
	}
	return e.Err.Error()
}

func (e *IntegrityError) Unwrap() error { return e.Err }

// FaultSink is the gang a batch ran on, as far as its integrity verdict is
// concerned; *fleet.Grant implements it.
type FaultSink interface {
	// ReportFaults marks gang slots attributed as tampering.
	ReportFaults(slots []int)
	// ReportSuspect marks the whole gang suspect.
	ReportSuspect()
}

// ReportOutcome folds one batch's integrity verdict into the gang it ran
// on: culprits attributed by the redundant decoding (whether the batch
// failed or recovery absorbed the fault) quarantine the devices behind
// those slots; an unattributable violation casts suspicion over the whole
// gang. Every holder of a gang — serving workers, the training gang source,
// replay — reports through here, before it releases the gang.
func ReportOutcome(g FaultSink, culprits []int, err error) {
	if len(culprits) > 0 {
		g.ReportFaults(culprits)
		return
	}
	if err == nil {
		return // the clean path: nothing to report, nothing allocated
	}
	var ie *IntegrityError
	switch {
	case errors.As(err, &ie) && len(ie.Culprits) > 0:
		g.ReportFaults(ie.Culprits)
	case errors.Is(err, masking.ErrIntegrity):
		g.ReportSuspect()
	}
}

// engine is the TEE-side core of every lane of a Pipeline or TrainPipeline:
// it walks the model, keeps non-linear layers enclave-resident, and runs the
// quantize → encode → fan-out → verify → decode → restore flow for every
// bilinear layer. It owns no optimizer state; training-only logic lives on
// TrainPipeline.
//
// An engine runs one batch at a time — it mirrors one TEE execution
// context. Engines sharing a model replica (lanes) serialise their
// TEE-side work under the tee token, because nn layers cache forward state.
type engine struct {
	cfg   Config
	model *nn.Model
	fleet Fleet
	encl  *enclave.Enclave
	q     *quant.Quantizer
	rng   *rand.Rand

	// linSeq numbers linear layers within a step.
	linSeq int

	// tee is the TEE execution token this lane shares with its siblings:
	// the engine holds it for all enclave-side work and releases it only
	// while a dispatch is in GPU flight, which is exactly the window another
	// lane's engine uses to decode its previous batch or encode its next one.
	tee *sync.Mutex
	// lane is this engine's index among its siblings.
	lane int
	// onToken, when non-nil, runs after every TEE token acquisition. A
	// training lane uses it to re-install its private gradient sinks into
	// the shared model — another lane may have swapped in its own while
	// this engine's dispatch was in flight.
	onToken func()
	// pool, when non-nil, supplies pre-drawn noise sets so the encode
	// consumes precomputed material with zero online RNG; exhaustion falls
	// back to inline draws from rng (counted by the pool).
	pool *masking.NoisePool
	// flight is the gang flight of the virtual batch currently on this
	// engine: opened when the lane binds its gang to the batch, ridden by
	// every offload of both passes, ended before the gang is released (see
	// openBatchFlight). A training batch's flight also keeps the coded
	// inputs its backward pass reads. The coding math does not depend on
	// it: outputs are bit-identical to internal/spec/stack, which has no
	// flights at all.
	flight *gpu.BlockFlight

	// sp, when non-nil, is the trace span of the virtual batch currently
	// executing on this engine: every offload hangs an
	// encode/dispatch/decode child tree off it. Installed per batch by the
	// owning driver; the untraced case is a nil pointer, which the obs
	// spans treat as a free no-op.
	sp *obs.Span
	// rec, when non-nil, receives flight-recorder events from the engine:
	// integrity verdicts and noise-pool fallbacks.
	rec *obs.FlightRecorder

	// deadline, when non-zero, is the absolute end-to-end deadline of the
	// batch currently on this engine: checked before every layer ships, so
	// an expired batch stops occupying devices at the next layer boundary
	// instead of running to completion. Installed per batch
	// (Pipeline.SubmitWithin); cleared with the span.
	deadline time.Time

	// recover enables audit-and-recover on integrity violations
	// (EnableRecovery; needs Redundancy >= 2).
	recover bool
	// clean is the recovery decode's presence-mask scratch: the present
	// responses minus the culprits.
	clean []bool
	// stepCulprits accumulates the gang slots attributed as tampering
	// during the current step (reset by beginStep) — the fleet layer reads
	// them after a dispatch to quarantine the physical devices behind the
	// slots, even when recovery masked the fault from the caller.
	stepCulprits []int
	// pending holds the backward layers shipped by the current backward
	// walk, in walk order, until backward settles them.
	pending []bwdLayer

	// Steady-state scratch. The engine is single-threaded, so one coded
	// arena (reset per forward offload, and once for the whole backward
	// walk), the batch's memory (reset per batch) and one set of reusable
	// buffers serve every offload: after the first batch of a model, the
	// coding data path (quantized inputs and deltas, noise, coded vectors,
	// decoded results, the backward equations of a one-window gather), the
	// activations between offloads and the backward's δ tensors allocate
	// nothing, and the device results go back to the kernels' pool once
	// decoded. Small per-offload allocations remain by design: the gather's
	// pending state and the per-batch masking.New (S×S scalar matrices,
	// negligible next to the vectors).
	arena    scratch.Arena[field.Elem]
	mem      batchMem
	staged   []stagedWeights // by layer, in walk order (linSeq-1)
	fscratch []float64       // normalized-float staging, grown to the largest layer
	wsum     field.Vec       // a backward layer's decoded ▽W, grown to the largest layer
	quantIn  []field.Vec     // K reusable header slots
	noise    []field.Vec     // M slots
	coded    []field.Vec     // S+E slots
	decoded  []field.Vec     // K slots
	eqs      []field.Vec     // 2S slots: a backward layer's primary, then secondary, equations
	phases   PhaseStats
}

// batchMem is a lane's memory for one virtual batch: the activations the
// TEE produces between offloads — restored bilinear outputs, resident layer
// outputs and residual sums — and the backward's δ tensors, with their
// tensor headers and the per-layer sets that hold them. It is bump-allocated from arenas reset
// when the lane starts its next batch (beginStep), so a batch's activations
// live exactly as long as the batch and, after a model's first batch,
// allocate nothing. What outlives the batch — a ticket's logits — is copied
// out before the lane is released.
type batchMem struct {
	floats  scratch.Arena[float64]
	headers scratch.Arena[tensor.Tensor]
	sets    scratch.Arena[*tensor.Tensor]
}

func (m *batchMem) reset() {
	m.floats.Reset()
	m.headers.Reset()
	m.sets.Reset()
}

// tensor returns a batch tensor of n elements (not cleared) under shape,
// which it shares rather than copies.
func (m *batchMem) tensor(shape []int, n int) *tensor.Tensor {
	return m.header(shape, m.floats.Get(n))
}

// header returns a batch tensor header over data and shape, sharing both.
func (m *batchMem) header(shape []int, data []float64) *tensor.Tensor {
	t := &m.headers.Get(1)[0]
	t.Shape, t.Data = shape, data
	return t
}

// inputs wraps a virtual batch's images, without copying them, as the
// batch's input tensors.
func (m *batchMem) inputs(images [][]float64, shape []int) []*tensor.Tensor {
	xs := m.set(len(images))
	for i, img := range images {
		xs[i] = m.header(shape, img)
	}
	return xs
}

// set returns a batch slice for k per-example tensors.
func (m *batchMem) set(k int) []*tensor.Tensor { return m.sets.Get(k) }

// sum returns the per-example sums a[i] + b[i] as batch tensors under a's
// shapes: a residual block's output, and its input gradient.
//
//darknight:hotpath
func (m *batchMem) sum(a, b []*tensor.Tensor) []*tensor.Tensor {
	outs := m.set(len(a))
	for i := range outs {
		o := m.tensor(a[i].Shape, a[i].Size())
		copy(o.Data, a[i].Data)
		o.Add(b[i])
		outs[i] = o
	}
	return outs
}

// slots returns *buf resized (without reallocation when possible) to k
// header slots.
func slots(buf *[]field.Vec, k int) []field.Vec {
	if cap(*buf) < k {
		*buf = make([]field.Vec, k)
	}
	return (*buf)[:k]
}

// lockTEE acquires the shared TEE execution token and runs the engine's
// reacquisition hook, so every enclave-side section starts with the lane's
// state (gradient sinks) installed in the shared model.
func (e *engine) lockTEE() {
	e.tee.Lock()
	if e.onToken != nil {
		e.onToken()
	}
}

// beginStep readies the lane for one virtual batch, recycling the last
// batch's activation memory.
func (e *engine) beginStep() {
	e.mem.reset()
	e.linSeq = 0
	e.stepCulprits = e.stepCulprits[:0]
}

// openBatchFlight opens the one flight every offload of the lane's batch
// rides, forward and backward, over the whole K+M+E gang, and counts it. A
// batch is one conversation with its gang anyway — the devices keep its
// coded inputs from forward to backward — so flight-scoped costs (a trip's
// launch latency, the fleet's handle accounting) are paid once per batch.
// A batch that runs a backward pass (train) marks its flight to keep the
// forward layers' coded inputs for the gradient jobs (§6); slot queues are
// FIFO, so each device runs a layer's forward job before its own gradient
// job for it. Inference keeps nothing. The caller ends the flight with
// endBatchFlight on every path before releasing the gang: a flight cannot
// outlive its grant.
func (e *engine) openBatchFlight(train bool) error {
	f, err := e.fleet.BeginBlock(e.cfg.maskParams().GPUs())
	if err != nil {
		return err
	}
	e.phases.Flights++
	if train {
		f.KeepInputs()
	}
	e.flight = f
	return nil
}

// endBatchFlight ends the batch's flight, if one is open; the flight
// recycles what it kept behind each slot's last job (§6: a batch's device
// memory lives exactly as long as the batch). Ending waits for the devices
// that cannot block to run everything shipped down it (see
// gpu.BlockFlight.End), so call it without the TEE token: a batch's device
// work — the jobs its quorum gathers decoded around included — is then
// done, and counted, when the batch completes.
func (e *engine) endBatchFlight() {
	if e.flight != nil {
		e.flight.End()
		e.flight = nil
	}
}

// effectiveSlack bounds the configured straggler slack so at least one
// redundant equation always remains for verification.
func (e *engine) effectiveSlack() int {
	s := e.cfg.StragglerSlack
	if max := e.cfg.Redundancy - 1; s > max {
		s = max
	}
	if s < 0 {
		s = 0
	}
	return s
}

// forwardLayer recursively runs one layer for all K examples, with the
// outputs in the batch's memory. Training records the trace the backward
// pass walks; inference records none (the trace is nil).
func (e *engine) forwardLayer(code *masking.Code, layer nn.Layer, xs []*tensor.Tensor, train bool) ([]*tensor.Tensor, *trace, error) {
	var tr *trace
	if train {
		tr = &trace{layer: layer, inputs: xs}
	}
	if lin, ok := layer.(nn.Linear); ok {
		outs, err := e.offloadForward(code, tr, lin, xs)
		if err != nil {
			return nil, nil, err
		}
		return outs, tr, nil
	}
	switch v := layer.(type) {
	case *nn.Sequential:
		cur := xs
		for _, child := range v.Layers() {
			out, childTr, err := e.forwardLayer(code, child, cur, train)
			if err != nil {
				return nil, nil, err
			}
			tr.add(childTr)
			cur = out
		}
		return cur, tr, nil
	case *nn.Residual:
		body, bodyTr, err := e.forwardLayer(code, v.Body(), xs, train)
		if err != nil {
			return nil, nil, err
		}
		tr.add(bodyTr)
		skip := xs
		if v.Skip() != nil {
			var skipTr *trace
			skip, skipTr, err = e.forwardLayer(code, v.Skip(), xs, train)
			if err != nil {
				return nil, nil, err
			}
			tr.add(skipTr)
		}
		return e.mem.sum(body, skip), tr, nil
	case nn.Resident:
		// TEE-resident non-linear layer: per-example forward.
		outs := e.mem.set(len(xs))
		shape := v.OutShape()
		n := size(shape)
		for i := range xs {
			outs[i] = e.mem.tensor(shape, n)
			v.ForwardInto(outs[i], xs[i], train)
		}
		return outs, tr, nil
	default:
		return nil, nil, fmt.Errorf("sched: layer %s is neither bilinear nor TEE-resident", layer.Name())
	}
}

// size returns the element count of a shape.
func size(shape []int) int {
	n := 1
	for _, d := range shape {
		n *= d
	}
	return n
}

// checkDeadline gates one layer's offload on the batch's deadline budget:
// an expired batch fails here — before encoding or shipping the layer — with
// an error matching context.DeadlineExceeded. Zero deadline never fails.
func (e *engine) checkDeadline() error {
	if e.deadline.IsZero() || time.Now().Before(e.deadline) {
		return nil
	}
	return fmt.Errorf("sched: batch deadline passed before dispatch: %w", context.DeadlineExceeded)
}

// gather waits for quorum q of a shipped layer. The engine releases the TEE
// token for exactly this wait, so sibling lanes encode and decode their
// batches while the layer is in device flight; nothing the arena holds is
// touched until this lane's next offload, so what the kernel references
// outlives the wait. Dispatch time runs from since; the token-reacquisition
// wait after it is deliberately untimed — it is overlap, not work.
func (e *engine) gather(p *gpu.LayerPending, q int, since time.Time) ([]field.Vec, []bool) {
	e.tee.Unlock()
	results, present := p.WaitQuorum(q)
	flight := time.Since(since)
	e.lockTEE()
	e.phases.Dispatch += flight
	return results, present
}

// offloadForward quantizes, encodes, ships, gathers, verifies, decodes and
// restores one bilinear layer's outputs for the K current activations on
// the batch's flight, once the batch's deadline allows it. Every layer
// boundary decodes, verifies, restores floats, adds the bias and
// re-encodes, because the requantization is data-dependent (the
// normalization factor of layer l+1's input is a function of layer l's
// decoded output) and chaining products in the field would overflow the
// 25-bit prime; what the shared flight amortizes is everything around the
// math. All TEE-side intermediates live in the engine's coded arena (reset
// per layer), the restored outputs in the batch's memory, and the device
// results go back to the kernels' pool once decoded. A training trace
// records the layer's ordinal and its shipped forward layer, whose kept
// coded inputs the backward pass reads.
func (e *engine) offloadForward(code *masking.Code, tr *trace, lin nn.Linear, xs []*tensor.Tensor) ([]*tensor.Tensor, error) {
	if err := e.checkDeadline(); err != nil {
		return nil, err
	}
	e.linSeq++
	osp := e.sp.Child("offload")
	if osp != nil {
		osp.Annotate("layer", layerName(e.linSeq))
		// Ending the offload span also ends any phase child left open by an
		// error return, so the trace stays well formed on failures.
		defer osp.End()
	}
	// Straggler tolerance is quorum < NumCoded; waiting for every device is
	// the same gather with nothing to decode around.
	quorum := code.NumCoded() - e.effectiveSlack()
	esp := osp.Child("encode")
	t0 := time.Now()
	enc, err := e.encodeForward(code, lin, xs, quorum < code.NumCoded())
	if err != nil {
		return nil, err
	}
	defer e.freeEnclave(enc.workset)
	e.phases.Encode += time.Since(t0)
	esp.End()

	dsp := osp.Child("dispatch")
	if dsp != nil && quorum < code.NumCoded() {
		dsp.Annotatef("quorum", "%d/%d", quorum, code.NumCoded())
	}
	t1 := time.Now()
	pend, err := e.flight.ForwardLayer("", enc.kernel, enc.coded)
	if err != nil {
		return nil, err
	}
	if tr != nil {
		tr.lin, tr.fwd = e.linSeq, pend
	}
	results, present := e.gather(pend, quorum, t1)
	dsp.End()

	csp := osp.Child("decode")
	t2 := time.Now()
	decoded, err := e.decodeForward(code, csp, pend, results, present)
	if err != nil {
		return nil, err
	}
	outs := e.restoreForward(lin, decoded, enc.fx*enc.fw)
	e.phases.Decode += time.Since(t2)
	e.phases.Offloads++
	csp.End()
	return outs, nil
}

// recycle returns a gathered layer's device results to the kernels'
// scratch pool (field.GetScratchVec), once the decode, the audit and any
// recovery have read them for the last time. Only the present responses
// are the gatherer's to return: a laggard's late result lands in the
// layer's pending state, never in the snapshot a quorum gather returned.
func recycle(results []field.Vec, present []bool) {
	for j, r := range results {
		if present == nil || present[j] {
			field.PutScratchVec(r)
		}
	}
}

// layerName names a batch's n-th bilinear layer in spans and errors.
func layerName(n int) string { return "lin" + strconv.Itoa(n) }

// fwdEnc is the encode-stage output of one bilinear layer's forward
// offload: everything the dispatch and decode stages need.
type fwdEnc struct {
	kernel  func(field.Vec) field.Vec
	coded   []field.Vec
	fx, fw  float64
	workset int64
}

// stagedWeights is one bilinear layer's weights as its devices read them:
// the quantized vector, its normalization factor and the forward kernel
// over it. Algorithm 2 updates the weights once per large batch, so every
// virtual batch of a step reads the same W; the staging is valid while the
// layer's float weights equal w, the copy they were staged from.
type stagedWeights struct {
	w      []float64
	wq     field.Vec
	fw     float64
	kernel func(field.Vec) field.Vec
}

// stage returns the current layer's staged weights, restaging them when
// the layer's float weights differ from the kept copy — whoever wrote them
// (an optimizer step, a weight copy, a test), there is no version to bump.
// A restage overwrites the staged vector only when the engine waits for
// every device: a quorum laggard of an earlier batch may still be reading
// it otherwise, so with slack it stages into a fresh vector and leaves the
// old one to the laggard.
//
//darknight:hotpath
func (e *engine) stage(lin nn.Linear) *stagedWeights {
	if e.linSeq > len(e.staged) { // the walk numbers layers 1, 2, …
		//lint:ignore hotpathalloc grows once per layer, on the engine's first batch
		e.staged = append(e.staged, stagedWeights{})
	}
	s := &e.staged[e.linSeq-1]
	w := lin.WeightData()
	if s.kernel != nil && slices.Equal(s.w, w) {
		return s
	}
	if s.kernel == nil || e.effectiveSlack() > 0 {
		wq := field.NewVec(len(w))
		s.wq = wq
		s.kernel = func(x field.Vec) field.Vec { return lin.LinearForwardField(wq, x) }
	}
	s.fw = e.quantizeWeights(s.wq, w)
	//lint:ignore hotpathalloc grows once per layer, on its first staging
	s.w = append(s.w[:0], w...)
	return s
}

// encodeForward runs the encode stage of one bilinear layer's offload:
// dynamic normalization, quantization into the field (of the weights only
// when they changed since the lane staged them), the enclave working-set
// charge, the noise draw and the coded combine. The caller
// owns freeing the returned workset (already freed on error).
func (e *engine) encodeForward(code *masking.Code, lin nn.Linear, xs []*tensor.Tensor, cloneForQuorum bool) (fwdEnc, error) {
	k := e.cfg.VirtualBatch
	// Shared dynamic normalization factor across the virtual batch so the
	// backward decode (a sum across inputs) can be unscaled exactly.
	fx := sharedNormFactor(xs)
	sw := e.stage(lin)

	// TEE: quantize into the field.
	e.arena.Reset()
	n := lin.InLen()
	scratch := e.floats(n)
	quantIn := slots(&e.quantIn, k)
	for i := 0; i < k; i++ {
		for j, v := range xs[i].Data {
			scratch[j] = v / fx
		}
		quantIn[i] = e.q.QuantizeInto(e.arena.Get(n), scratch)
	}

	// Enclave working set: K inputs + S+E coded vectors of InLen u32.
	workset := int64(lin.InLen()) * int64(k+code.NumCoded()) * 4
	if err := e.allocEnclave(workset); err != nil {
		return fwdEnc{}, err
	}

	// Noise rows: the offline path consumes a pre-drawn set from the noise
	// pool (zero online RNG — pure pointer traffic); exhaustion falls back
	// to inline draws from the engine's RNG, which belongs to this single
	// TEE context, so EncodeWith's combine can fan out freely either way.
	noise := slots(&e.noise, code.M)
	var pset *masking.NoiseSet
	if e.pool != nil {
		pset = e.pool.Get(n)
	}
	if pset != nil {
		copy(noise, pset.Rows)
	} else {
		if e.pool != nil && e.rec != nil {
			e.rec.Record(obs.Event{Kind: obs.KindNoisePool, Subsystem: "sched", Device: -1, Slot: -1,
				Detail: fmt.Sprintf("pool empty for row length %d, inline fallback", n)})
		}
		for m := range noise {
			noise[m] = field.RandVecInto(e.rng, e.arena.Get(n))
		}
	}
	coded := slots(&e.coded, code.NumCoded())
	for j := range coded {
		coded[j] = e.arena.Get(n)
	}
	encErr := code.EncodeWith(coded, quantIn, noise)
	// The noise is folded into the coded vectors now; hand the set straight
	// back so the background generator can overwrite it.
	if pset != nil {
		e.pool.Recycle(pset)
	}
	if encErr != nil {
		e.freeEnclave(workset)
		return fwdEnc{}, encErr
	}

	// A quorum gather returns before the slowest devices answer. A
	// laggard's kernel then runs concurrently with the TEE's next offload,
	// so the coded inputs it reads must outlive this arena generation:
	// clone them out of the arena (the staged weights its kernel reads are
	// never overwritten with slack; see stage). Waiting for every device
	// keeps the zero-allocation arena buffers.
	if cloneForQuorum {
		cl := make([]field.Vec, len(coded))
		for j := range coded {
			cl[j] = coded[j].Clone()
		}
		coded = cl // fresh header array too: e.coded is rewritten next offload
	}
	return fwdEnc{kernel: sw.kernel, coded: coded, fx: fx, fw: sw.fw, workset: workset}, nil
}

// decodeForward runs the decode stage of one bilinear layer's offload and
// owns its integrity verdict: one verified decode from the responses that
// arrived (present == nil: all of them), spending every present response
// beyond S as a parity check — exact over F_p, so bit-for-bit the full
// decode whichever responses arrived (pinned by masking's subset tests).
// The responses go back to the kernels' pool once decoded.
//
// A failed check is audited on the same decode windows, which names the
// culprit slots when two checks are present. When only one is — the quorum
// gather returned around a laggard at slack E-1 — the audit first takes in
// the laggards' answers that are bound to land: it waits, with the TEE
// token released, for the layer's jobs on slots whose calls cannot block
// (the jobs the flight's End waits for anyway) and audits the larger set. A
// slot that may block is never waited for. With recovery on — the
// corrective action §4.4 leaves to future work, "executing on another GPU
// worker" — the verified decode then runs once more with the culprits
// cleared from the presence mask: the clean responses still hold a parity
// check, and the outputs are exactly the honest ones. Otherwise, or when no
// culprit can be named, the batch fails with an *IntegrityError carrying
// whatever culprits the audit found. Either way the verdict is recorded
// once, after the last audit.
func (e *engine) decodeForward(code *masking.Code, csp *obs.Span, pend *gpu.LayerPending, results []field.Vec, present []bool) ([]field.Vec, error) {
	defer func() { recycle(results, present) }()
	missing, outLen := 0, -1
	for j, p := range present {
		if !p {
			missing++
		} else if outLen < 0 {
			outLen = len(results[j])
		}
	}
	if csp != nil && missing > 0 {
		csp.Annotatef("stragglers", "%d", missing)
	}
	if outLen < 0 {
		outLen = len(results[0])
	}
	decoded := slots(&e.decoded, e.cfg.VirtualBatch)
	for i := range decoded {
		decoded[i] = e.arena.Get(outLen)
	}
	err := code.DecodeForwardSubsetInto(decoded, results, present)
	if err == nil {
		return decoded, nil
	}
	if !errors.Is(err, masking.ErrIntegrity) {
		return nil, err
	}
	culprits, aerr := code.AuditForwardSubset(results, present)
	if aerr != nil && missing > 0 {
		results, present = e.awaitPrompt(pend)
		culprits, aerr = code.AuditForwardSubset(results, present)
	}
	if aerr != nil {
		culprits = nil // not attributable: the verdict is unattributed
	}
	e.stepCulprits = append(e.stepCulprits, culprits...)
	slices.Sort(e.stepCulprits)
	e.stepCulprits = slices.Compact(e.stepCulprits)
	if e.recover && len(culprits) > 0 &&
		code.DecodeForwardSubsetInto(decoded, results, e.cleanMask(len(results), present, culprits)) == nil {
		e.recordIntegrity(culprits, true)
		return decoded, nil
	}
	return nil, e.integrityError(culprits, err)
}

// awaitPrompt waits for a gathered layer's jobs on prompt slots with the
// TEE token released, as gather does, and returns the larger response set.
// The wait is charged to the decode that asked for it.
func (e *engine) awaitPrompt(p *gpu.LayerPending) ([]field.Vec, []bool) {
	e.tee.Unlock()
	results, present := p.WaitPrompt()
	e.lockTEE()
	return results, present
}

// cleanMask returns, in engine scratch, the presence mask over n responses
// (present == nil: all of them) with the culprits cleared.
func (e *engine) cleanMask(n int, present []bool, culprits []int) []bool {
	e.clean = slices.Grow(e.clean[:0], n)[:n]
	for j := range e.clean {
		e.clean[j] = present == nil || present[j]
	}
	for _, j := range culprits {
		e.clean[j] = false
	}
	return e.clean
}

// restoreForward runs the restore stage in one sweep per example: floats
// back from the field, the normalizations undone, the TEE-side bias added
// (per element for a dense layer, per channel for a convolution). Each
// rescaled product is rounded by an explicit float64 conversion, so no
// platform can fuse it with the bias add into an FMA and change the bits
// internal/spec/stack computes in three sweeps. The outputs are batch
// memory.
//
//darknight:hotpath
func (e *engine) restoreForward(lin nn.Linear, decoded []field.Vec, rescale float64) []*tensor.Tensor {
	bias := lin.BiasData()
	shape := lin.OutShape()
	outs := e.mem.set(len(decoded))
	// A layer without bias restores as one plane with a zero bias: the
	// restored products are never −0, so adding +0 changes no bit.
	planes := max(len(bias), 1)
	for i, v := range decoded {
		y := e.mem.tensor(shape, len(v))
		plane := len(v) / planes
		for c := 0; c < planes; c++ {
			b := 0.0
			if len(bias) > 0 {
				b = bias[c]
			}
			seg := y.Data[c*plane : (c+1)*plane]
			for j, q := range v[c*plane : (c+1)*plane] {
				seg[j] = float64(e.q.Product(q)*rescale) + b
			}
		}
		outs[i] = y
	}
	return outs
}

// recordIntegrity files one integrity verdict into the flight recorder
// and onto the current batch's span.
func (e *engine) recordIntegrity(culprits []int, recovered bool) {
	if e.rec == nil && e.sp == nil {
		return
	}
	detail := "unattributed (whole gang suspect)"
	if len(culprits) > 0 {
		detail = fmt.Sprintf("culprit slots %v", culprits)
	}
	if recovered {
		detail += ", recovered from clean equations"
	}
	e.rec.Record(obs.Event{
		Kind: obs.KindIntegrity, Subsystem: "sched", Device: -1, Slot: -1,
		Detail: detail,
	})
	e.sp.Annotate("integrity", detail)
}

// integrityError records an unrecovered integrity verdict and returns it
// as the batch's error: the attributed culprits (none when the present
// redundancy cannot name them, so the whole gang is suspect) over the
// verification failure verr.
func (e *engine) integrityError(culprits []int, verr error) error {
	e.recordIntegrity(culprits, false)
	return &IntegrityError{Culprits: culprits, Err: verr}
}

// floats returns the persistent normalized-float staging buffer, grown to
// at least n.
func (e *engine) floats(n int) []float64 {
	if cap(e.fscratch) < n {
		e.fscratch = make([]float64, n)
	}
	return e.fscratch[:n]
}

// quantizeWeights quantizes the weights, divided by their normalization
// factor, into wq and returns the factor.
func (e *engine) quantizeWeights(wq field.Vec, w []float64) float64 {
	fw := 1.0
	if m := maxAbs(w); m > normLimit {
		fw = m / normLimit
	}
	if fw == 1 {
		e.q.QuantizeInto(wq, w)
		return fw
	}
	scaled := e.floats(len(w))
	for i, v := range w {
		scaled[i] = v / fw
	}
	e.q.QuantizeInto(wq, scaled)
	return fw
}

func (e *engine) allocEnclave(n int64) error {
	if e.encl == nil {
		return nil
	}
	if err := e.encl.Alloc(n); err != nil {
		return fmt.Errorf("sched: virtual batch K=%d does not fit in enclave: %w",
			e.cfg.VirtualBatch, err)
	}
	return nil
}

func (e *engine) freeEnclave(n int64) {
	if e.encl != nil {
		e.encl.Free(n)
	}
}
