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
	// every offload of both passes, plus one per backward cache refill.
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

	// keyspace prefixes GPU-side storage keys so coded tensors from
	// different pipelines sharing one physical fleet cannot alias.
	keyspace string
	// reuseKeys drops the step counter from storage keys. Training needs
	// per-step keys (backward reads the stored coded inputs, and the batch
	// drops them when its flight ends), but a forward-only pipeline never
	// reads them back — reusing keys lets each dispatch overwrite the last
	// one so long-running serving does not grow device storage without
	// bound.
	reuseKeys bool
	// stepSeq names coded tensors uniquely across steps so GPU-side
	// storage from different steps cannot alias.
	stepSeq int
	// linSeq numbers linear layers within a step.
	linSeq int
	// stored lists the per-step keys under which the current batch's
	// forward offloads left coded inputs on its gang; endBatchFlight drops
	// them. Empty with reused keys: inference overwrites its stores instead.
	stored []string

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
	// openBatchFlight). The coding math does not depend on it: outputs are
	// bit-identical to internal/spec/stack, which has no flights at all.
	flight *gpu.BlockFlight

	// sp, when non-nil, is the trace span of the virtual batch currently
	// executing on this engine: every offload hangs an
	// encode/dispatch/decode child tree off it. Installed per batch by the
	// owning driver; the untraced case is a nil pointer, which the obs
	// spans treat as a free no-op.
	sp *obs.Span
	// rec, when non-nil, receives flight-recorder events from the engine:
	// backward cache-miss refills and integrity verdicts.
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
	// refills counts backward cache-miss recoveries: dispatches whose
	// device-side coded-input cache had to be re-created from the trace
	// (device replaced, reshuffled or still lagging since forward).
	refills int64
	// stepCulprits accumulates the gang slots attributed as tampering
	// during the current step (reset by beginStep) — the fleet layer reads
	// them after a dispatch to quarantine the physical devices behind the
	// slots, even when recovery masked the fault from the caller.
	stepCulprits []int
	// pending holds the backward layers shipped by the current backward
	// walk, in walk order, until backward settles them.
	pending []bwdLayer

	// Steady-state scratch. The engine is single-threaded, so one arena and
	// one set of reusable buffers serve every offload: after the first pass
	// over the model, the coding data path (quantized inputs, noise, coded
	// vectors, quantized weights, decoded results) allocates nothing.
	// Small per-offload allocations remain by design: the escaping output
	// tensors, the kernel closure, and the per-batch masking.New (S×S
	// scalar matrices, negligible next to the vectors).
	arena    field.Arena
	fscratch []float64   // normalized-float staging, grown to the largest layer
	wsum     field.Vec   // a backward layer's decoded ▽W, grown to the largest layer
	quantIn  []field.Vec // K reusable header slots
	noise    []field.Vec // M slots
	coded    []field.Vec // S+E slots
	decoded  []field.Vec // K slots
	phases   PhaseStats
}

// slots returns *buf resized (without reallocation when possible) to k
// header slots.
func slots(buf *[]field.Vec, k int) []field.Vec {
	if cap(*buf) < k {
		*buf = make([]field.Vec, k)
	}
	return (*buf)[:k]
}

func newEngine(cfg Config, model *nn.Model, encl *enclave.Enclave, keyspace string) engine {
	return engine{
		cfg:      cfg,
		model:    model,
		encl:     encl,
		q:        quant.New(cfg.FracBits),
		rng:      rand.New(rand.NewSource(cfg.Seed)),
		keyspace: keyspace,
	}
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

// beginStep opens a fresh key namespace for one virtual batch.
func (e *engine) beginStep() {
	e.stepSeq++
	e.linSeq = 0
	e.stepCulprits = e.stepCulprits[:0]
}

// beginFlight opens a flight over the whole K+M+E gang and counts it.
func (e *engine) beginFlight() (*gpu.BlockFlight, error) {
	f, err := e.fleet.BeginBlock(e.cfg.maskParams().GPUs())
	if err != nil {
		return nil, err
	}
	e.phases.Flights++
	return f, nil
}

// openBatchFlight opens the one flight every offload of the lane's batch
// rides, forward and backward. A batch is one conversation with its gang
// anyway — the devices keep its coded inputs from forward to backward — so
// flight-scoped costs (a trip's launch latency, the fleet's handle
// accounting) are paid once per batch. Slot queues are FIFO, so each
// device runs its forward store before its own gradient job. The caller
// ends the flight with endBatchFlight on every path before releasing the
// gang: a flight cannot outlive its grant.
func (e *engine) openBatchFlight() error {
	f, err := e.beginFlight()
	e.flight = f
	return err
}

// endBatchFlight ends the batch's flight, if one is open, after having
// every slot drop the coded inputs the batch stored (§6: a batch's device
// memory lives exactly as long as the batch). The drop rides each slot's
// FIFO behind the batch's own jobs, so a quorum laggard's late store goes
// with it; a refill's identity flight was gathered in full before backward
// went on, so its stores are in place to be dropped. Ending waits
// for the devices that cannot block to run everything shipped down it (see
// gpu.BlockFlight.End), so call it without the TEE token: a batch's device
// work — the jobs its quorum gathers decoded around included — is then
// done, and counted, when the batch completes.
func (e *engine) endBatchFlight() {
	if e.flight != nil {
		e.flight.Drop(e.stored)
		e.flight.End()
		e.flight = nil
	}
	clear(e.stored)
	e.stored = e.stored[:0]
}

// storesVolatile reports whether the fleet's device-side coded-input
// stores can disappear or reshuffle between a batch's forward and backward
// passes. A bare *gpu.Cluster binds slot i to device i for its lifetime,
// so its stores are stable and a training forward on it skips capturing
// the refill noise (no per-offload clone on the raw-cluster hot path);
// every other fleet — gang grants whose devices are re-picked per batch,
// wrappers that swap delegates — is assumed volatile.
func (e *engine) storesVolatile() bool {
	_, stable := e.fleet.(*gpu.Cluster)
	return !stable
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

// forwardLayer recursively runs one layer for all K examples.
func (e *engine) forwardLayer(code *masking.Code, layer nn.Layer, xs []*tensor.Tensor, train bool) ([]*tensor.Tensor, *trace, error) {
	tr := &trace{layer: layer, inputs: append([]*tensor.Tensor(nil), xs...)}
	if lin, ok := layer.(nn.Linear); ok {
		outs, err := e.offloadForward(code, tr, lin, xs, train)
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
			tr.children = append(tr.children, childTr)
			cur = out
		}
		return cur, tr, nil
	case *nn.Residual:
		body, bodyTr, err := e.forwardLayer(code, v.Body(), xs, train)
		if err != nil {
			return nil, nil, err
		}
		tr.children = append(tr.children, bodyTr)
		skip := xs
		if v.Skip() != nil {
			var skipTr *trace
			skip, skipTr, err = e.forwardLayer(code, v.Skip(), xs, train)
			if err != nil {
				return nil, nil, err
			}
			tr.children = append(tr.children, skipTr)
		}
		outs := make([]*tensor.Tensor, len(xs))
		for i := range outs {
			o := body[i].Clone()
			o.Add(skip[i])
			outs[i] = o
		}
		return outs, tr, nil
	default:
		// TEE-resident non-linear layer: per-example forward.
		outs := make([]*tensor.Tensor, len(xs))
		for i := range xs {
			outs[i] = layer.Forward(xs[i], train)
		}
		return outs, tr, nil
	}
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
func (e *engine) gather(p *gpu.LayerPending, q int, since time.Time) ([]field.Vec, []bool, error) {
	e.tee.Unlock()
	results, present, err := p.WaitQuorum(q)
	flight := time.Since(since)
	e.lockTEE()
	e.phases.Dispatch += flight
	return results, present, err
}

// offloadForward quantizes, encodes, ships, gathers, verifies, decodes and
// restores one bilinear layer's outputs for the K current activations on
// the batch's flight, once the batch's deadline allows it. Every layer
// boundary decodes, verifies, restores floats, adds the bias and
// re-encodes, because the requantization is data-dependent (the
// normalization factor of layer l+1's input is a function of layer l's
// decoded output) and chaining products in the field would overflow the
// 25-bit prime; what the shared flight amortizes is everything around the
// math. All TEE-side intermediates live in the engine's arena (reset per
// layer), so the steady-state loop allocates only the escaping output
// tensors. In training mode the noise rows are additionally captured into
// the trace so a backward cache miss can re-create the device-side coded
// inputs bit-identically (see refillStores).
func (e *engine) offloadForward(code *masking.Code, tr *trace, lin nn.Linear, xs []*tensor.Tensor, train bool) ([]*tensor.Tensor, error) {
	if err := e.checkDeadline(); err != nil {
		return nil, err
	}
	e.linSeq++
	tr.key = e.layerKey()
	if !e.reuseKeys {
		e.stored = append(e.stored, tr.key)
	}
	osp := e.sp.Child("offload")
	if osp != nil {
		osp.Annotate("key", tr.key)
		// Ending the offload span also ends any phase child left open by an
		// error return, so the trace stays well formed on failures.
		defer osp.End()
	}
	// Straggler tolerance is quorum < NumCoded; waiting for every device is
	// the same gather with nothing to decode around.
	quorum := code.NumCoded() - e.effectiveSlack()
	esp := osp.Child("encode")
	t0 := time.Now()
	enc, err := e.encodeForward(code, tr, lin, xs, train, quorum < code.NumCoded())
	if err != nil {
		return nil, err
	}
	defer e.freeEnclave(enc.workset)
	wq := enc.wq
	e.phases.Encode += time.Since(t0)
	esp.End()

	dsp := osp.Child("dispatch")
	if dsp != nil && quorum < code.NumCoded() {
		dsp.Annotatef("quorum", "%d/%d", quorum, code.NumCoded())
	}
	t1 := time.Now()
	pend, err := e.flight.ForwardLayer(tr.key, func(x field.Vec) field.Vec { return lin.LinearForwardField(wq, x) }, enc.coded)
	if err != nil {
		return nil, err
	}
	results, present, err := e.gather(pend, quorum, t1)
	dsp.End()
	if err != nil {
		return nil, err
	}

	csp := osp.Child("decode")
	t2 := time.Now()
	decoded, err := e.decodeForward(code, csp, results, present)
	if err != nil {
		return nil, err
	}
	outs := e.restoreForward(lin, decoded, enc.fx*enc.fw)
	e.phases.Decode += time.Since(t2)
	e.phases.Offloads++
	csp.End()
	return outs, nil
}

// layerKey names the current layer's coded inputs in device storage:
// "<keyspace>lin<n>" with reused keys, "<keyspace>step<s>/lin<n>" with
// per-step ones.
func (e *engine) layerKey() string {
	if e.reuseKeys {
		return e.keyspace + "lin" + strconv.Itoa(e.linSeq)
	}
	return e.keyspace + "step" + strconv.Itoa(e.stepSeq) + "/lin" + strconv.Itoa(e.linSeq)
}

// fwdEnc is the encode-stage output of one bilinear layer's forward
// offload: everything the dispatch and decode stages need.
type fwdEnc struct {
	wq      field.Vec
	coded   []field.Vec
	fx, fw  float64
	workset int64
}

// encodeForward runs the encode stage of one bilinear layer's offload:
// dynamic normalization, quantization into the field, the enclave
// working-set charge, the noise draw and the coded combine. The caller
// owns freeing the returned workset (already freed on error).
func (e *engine) encodeForward(code *masking.Code, tr *trace, lin nn.Linear, xs []*tensor.Tensor, train, cloneForQuorum bool) (fwdEnc, error) {
	k := e.cfg.VirtualBatch
	// Shared dynamic normalization factor across the virtual batch so the
	// backward decode (a sum across inputs) can be unscaled exactly.
	fx := sharedNormFactor(xs, e.cfg.NormLimit)
	fw := 1.0
	if m := maxAbs(lin.WeightData()); m > e.cfg.NormLimit {
		fw = m / e.cfg.NormLimit
	}

	// TEE: quantize into the field.
	e.arena.Reset()
	n := lin.InLen()
	scratch := e.floats(n)
	quantIn := slots(&e.quantIn, k)
	for i := 0; i < k; i++ {
		for j, v := range xs[i].Data {
			scratch[j] = v / fx
		}
		quantIn[i] = e.q.QuantizeInto(e.arena.RawVec(n), scratch)
	}
	wq := e.quantizeWeights(lin.WeightData(), fw)

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
			noise[m] = field.RandVecInto(e.rng, e.arena.RawVec(n))
		}
	}
	coded := slots(&e.coded, code.NumCoded())
	for j := range coded {
		coded[j] = e.arena.RawVec(n)
	}
	encErr := code.EncodeWith(coded, quantIn, noise)
	if train && e.storesVolatile() {
		// The backward pass may need to re-create the device-side coded
		// inputs (cache refill after a device lost its stores): capture the
		// noise rows — the only non-recomputable encode ingredient — before
		// the pool or the arena reclaims them. A quorum laggard needs none:
		// its gradient job for a layer rides the flight of its store, behind
		// it.
		tr.noise = make([]field.Vec, len(noise))
		for m := range noise {
			tr.noise[m] = noise[m].Clone()
		}
	}
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
	// so everything it references — the coded inputs and the quantized
	// weights captured by the kernel closure — must outlive this arena
	// generation: clone them out of the arena. Waiting for every device
	// keeps the zero-allocation arena buffers.
	if cloneForQuorum {
		wq = wq.Clone()
		cl := make([]field.Vec, len(coded))
		for j := range coded {
			cl[j] = coded[j].Clone()
		}
		coded = cl // fresh header array too: e.coded is rewritten next offload
	}
	return fwdEnc{wq: wq, coded: coded, fx: fx, fw: fw, workset: workset}, nil
}

// decodeForward runs the decode stage of one bilinear layer's offload and
// owns its integrity verdict: one verified decode from the responses that
// arrived (present == nil: all of them), spending every present response
// beyond S as a parity check — exact over F_p, so bit-for-bit the full
// decode whichever responses arrived (pinned by masking's subset tests).
//
// A failed check is audited on the same decode windows, which names the
// culprit slots when the present redundancy allows (E >= 2, slack <=
// E-2). With recovery on — the corrective action §4.4 leaves to future
// work, "executing on another GPU worker" — the verified decode then runs
// once more with the culprits cleared from the presence mask: the clean
// responses still hold a parity check, and the outputs are exactly the
// honest ones. Otherwise, or when no culprit can be named, the batch fails
// with an *IntegrityError carrying whatever culprits the audit found.
func (e *engine) decodeForward(code *masking.Code, csp *obs.Span, results []field.Vec, present []bool) ([]field.Vec, error) {
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
		decoded[i] = e.arena.RawVec(outLen)
	}
	err := code.DecodeForwardSubsetInto(decoded, results, present)
	if err == nil {
		return decoded, nil
	}
	if !errors.Is(err, masking.ErrIntegrity) {
		return nil, err
	}
	culprits, aerr := code.AuditForwardSubset(results, present)
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

// restoreForward runs the restore stage: floats back from the field, undo
// normalization, add the TEE-side bias. Outputs escape to the caller as
// layer activations, so they are deliberately fresh allocations, not
// arena memory.
func (e *engine) restoreForward(lin nn.Linear, decoded []field.Vec, rescale float64) []*tensor.Tensor {
	k := e.cfg.VirtualBatch
	bias := lin.BiasData()
	outShape := lin.OutShape()
	outs := make([]*tensor.Tensor, k)
	for i := 0; i < k; i++ {
		y := e.q.UnquantizeProduct(decoded[i])
		for j := range y {
			y[j] *= rescale
		}
		addBias(y, bias, outShape)
		outs[i] = tensor.FromSlice(y, outShape...)
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

// quantizeWeights stages the (optionally normalized) weights into an
// arena-backed field vector. The result is only referenced by the dispatch
// kernel closure, which completes before the next arena reset.
func (e *engine) quantizeWeights(w []float64, fw float64) field.Vec {
	wq := e.arena.RawVec(len(w))
	if fw == 1 {
		return e.q.QuantizeInto(wq, w)
	}
	scaled := e.floats(len(w))
	for i, v := range w {
		scaled[i] = v / fw
	}
	return e.q.QuantizeInto(wq, scaled)
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
