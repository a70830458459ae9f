package sched

import (
	"errors"
	"fmt"
	"time"

	"darknight/internal/field"
	"darknight/internal/gpu"
	"darknight/internal/masking"
	"darknight/internal/nn"
	"darknight/internal/obs"
	"darknight/internal/tensor"
)

// This file is the backward half of the TEE-side engine: the reverse model
// walk, the Eq (4–6) gradient offload, and the resilience machinery around
// it (straggler-tolerant dual-window gather, device-cache refill), run by
// every TrainPipeline lane on top of the forward walk in engine.go.

// backward runs a virtual batch's backward pass in two stages. The walk
// (backwardLayer) reverses the forward trace on the TEE — bias gradients,
// the input-gradient chain, the public delta combinations — and ships every
// bilinear layer's weight-gradient equations as it reaches them, without
// waiting for any device: layer l's equations need only δ_l, which the
// TEE's own input-gradient chain produced, and the coded inputs the devices
// stored during forward, so no device result is on the walk's critical path.
// The settle stage then gathers, decodes and accumulates every shipped
// layer in walk order. The first error in walk order is returned.
func (e *engine) backward(code *masking.Code, tr *trace, grads []*tensor.Tensor) error {
	_, err := e.backwardLayer(code, tr, grads)
	var settleErr error
	for i := range e.pending {
		if settleErr = e.gatherBackward(code, &e.pending[i]); settleErr != nil {
			break
		}
	}
	clear(e.pending)
	e.pending = e.pending[:0]
	if settleErr != nil {
		return settleErr
	}
	return err
}

// backwardLayer reverses forwardLayer, returning per-example input grads.
// Bilinear layers are shipped onto e.pending, not gathered (see backward).
func (e *engine) backwardLayer(code *masking.Code, tr *trace, grads []*tensor.Tensor) ([]*tensor.Tensor, error) {
	switch v := tr.layer.(type) {
	case *nn.Sequential:
		cur := grads
		var err error
		for i := len(tr.children) - 1; i >= 0; i-- {
			if cur, err = e.backwardLayer(code, tr.children[i], cur); err != nil {
				return nil, err
			}
		}
		return cur, nil
	case *nn.Residual:
		dBody, err := e.backwardLayer(code, tr.children[0], grads)
		if err != nil {
			return nil, err
		}
		dSkip := grads
		if v.Skip() != nil {
			dSkip, err = e.backwardLayer(code, tr.children[1], grads)
			if err != nil {
				return nil, err
			}
		}
		out := make([]*tensor.Tensor, len(grads))
		for i := range out {
			o := dBody[i].Clone()
			o.Add(dSkip[i])
			out[i] = o
		}
		return out, nil
	default:
		if lin, ok := tr.layer.(nn.Linear); ok {
			return e.offloadBackward(code, tr, lin, grads)
		}
		out := make([]*tensor.Tensor, len(grads))
		for i := range grads {
			// Re-prime the layer's single-forward cache for THIS example
			// before its backward. The prime+backward pair runs without a
			// token release in between, so pipelined lanes clobbering the
			// shared layer's cache between offloads cannot corrupt it.
			tr.layer.Forward(tr.inputs[i], true)
			out[i] = tr.layer.Backward(grads[i])
		}
		return out, nil
	}
}

// bwdLayer is one shipped layer's backward state awaiting settlement: the
// public combined delta equations of both decode windows (sec is nil
// without straggler tolerance) and the unscaling factors the decode needs.
type bwdLayer struct {
	tr        *trace
	lin       nn.Linear
	prim, sec []field.Vec
	fd, fx    float64
	sp        *obs.Span
	pend      *gpu.LayerPending // the shipped equations
}

// offloadBackward ships one bilinear layer's weight-gradient equations
// (Eq 4–6) down the batch's flight and queues the layer on e.pending for
// backward to settle. grads is the gradient flowing into the layer; the
// per-example input gradients below it are returned.
//
// The TEE stage — the bias gradient, delta quantization, the public Eq (4)
// combinations and the input-gradient chain to the layer below — runs
// before anything is shipped; shipping never waits on a device (slot queues
// are unbounded). The flight stays open until backward has gathered the
// layer and folded its equations with the secret γ.
//
// With straggler slack and E >= 1 each layer ships both decode windows —
// the S primary equations on slots [0, S) and the S redundant-decoding
// equations (SecondaryB rows over coded inputs [E, S+E)) on slots [E, S+E)
// — and decodes from whichever completes first. Unlike the forward code,
// the backward coding is not MDS over arbitrary column subsets (each
// equation bakes its δ combination in), so tolerance is window-granular:
// stragglers among either window's E exclusive slots are absorbed, and a
// completed spare window doubles as verification.
func (e *engine) offloadBackward(code *masking.Code, tr *trace, lin nn.Linear, cur []*tensor.Tensor) ([]*tensor.Tensor, error) {
	k := e.cfg.VirtualBatch
	t0 := time.Now()
	l := bwdLayer{tr: tr, lin: lin, sp: e.sp.Child("offload-backward")}
	l.sp.Annotate("key", tr.key)
	esp := l.sp.Child("encode")
	// Bias gradient: TEE-side, cheap, uses only the public δ.
	for i := 0; i < k; i++ {
		lin.AddGradB(cur[i], 1)
	}
	// Shared normalization so the decoded SUM can be unscaled exactly.
	l.fd = sharedNormFactor(cur, e.cfg.NormLimit)
	l.fx = sharedNormFactor(tr.inputs, e.cfg.NormLimit)
	quantDeltas := make([]field.Vec, k)
	scratch := make([]float64, lin.OutLen())
	for i := 0; i < k; i++ {
		for j, v := range cur[i].Data {
			scratch[j] = v / l.fd
		}
		quantDeltas[i] = e.q.Quantize(scratch)
	}
	// Each GPU j computes Eq_j on (Σ_i β_ji·δ_i, x̄_j). The combination
	// happens GPU-side in the paper; B and δ are public either way.
	l.prim = combineDeltas(code.B, code.S, lin.OutLen(), quantDeltas)
	if e.cfg.StragglerSlack > 0 && code.E >= 1 { // both decode windows
		l.sec = combineDeltas(code.SecondaryB(), code.S, lin.OutLen(), quantDeltas)
	}
	// Input gradient: input-independent linear op, offloadable without
	// coding (paper §4.2, computation (2)); computed here functionally.
	next := make([]*tensor.Tensor, k)
	for i := 0; i < k; i++ {
		next[i] = lin.BackwardInputOnly(cur[i])
	}
	esp.End()
	e.phases.Encode += time.Since(t0)

	t1 := time.Now()
	err := e.shipBackward(&l)
	e.phases.Dispatch += time.Since(t1)
	if err != nil {
		return nil, err
	}
	e.pending = append(e.pending, l)
	return next, nil
}

// combineDeltas forms the s public delta combinations Σ_i b_ji·δ_i — row j
// of b is exactly equation j's K coefficients, one fused lazy-reduced
// combine each. Fresh allocations: the equations escape to the flight's
// slot workers, and past a quorum gather to laggard kernels.
func combineDeltas(b *field.Mat, s, n int, quantDeltas []field.Vec) []field.Vec {
	bars := make([]field.Vec, s)
	for j := range bars {
		bars[j] = make(field.Vec, n)
		field.Combine(bars[j], b.Row(j), quantDeltas)
	}
	return bars
}

// shipBackward ships one layer's gradient equations down the batch's
// flight.
func (e *engine) shipBackward(l *bwdLayer) error {
	lin := l.lin
	pend, err := e.flight.GradLayer(l.tr.key, func(delta, x field.Vec) field.Vec { return lin.GradWeightsField(delta, x) }, l.prim, l.sec)
	l.pend = pend
	return err
}

// gatherBackward gathers one shipped layer and folds its equations into the
// layer's weight gradient. A cache miss — the fleet's devices no longer
// hold this trace's coded forward inputs (quarantine replacement, slot
// reshuffle, or a quorum laggard that never stored) — triggers one
// refillStores pass, and the layer's equations are re-shipped down the
// still-open flight.
func (e *engine) gatherBackward(code *masking.Code, l *bwdLayer) error {
	// Ending the layer's span also ends any phase child left open by an
	// error return; layers never reached are ended with the batch's span.
	defer l.sp.End()
	dsp := l.sp.Child("dispatch")
	eqs, present, err := e.gather(l.pend, code.S, time.Now())
	if err != nil && errors.Is(err, gpu.ErrNoStored) {
		l.sp.Annotate("refill", l.tr.key)
		if rerr := e.refillStores(code, l.tr, l.fx); rerr != nil {
			return fmt.Errorf("sched: backward cache refill for %q: %w", l.tr.key, rerr)
		}
		if err = e.shipBackward(l); err == nil {
			eqs, present, err = e.gather(l.pend, code.S, time.Now())
		}
	}
	dsp.End()
	if err != nil {
		return err
	}

	csp := l.sp.Child("decode")
	t2 := time.Now()
	n := l.lin.WLen()
	if cap(e.wsum) < n {
		e.wsum = field.NewVec(n)
	}
	sum := e.wsum[:n]
	// Without slack one window ships (sec nil), and nil masks mean every
	// equation answered.
	prim, primPresent := eqs, present
	var sec []field.Vec
	var secPresent []bool
	if l.sec != nil {
		prim, sec = eqs[:code.S], eqs[code.S:]
		if present != nil {
			primPresent, secPresent = present[:code.S], present[code.S:]
		}
	}
	if err = code.DecodeBackwardSubsetInto(sum, prim, sec, primPresent, secPresent); err != nil {
		return fmt.Errorf("sched: backward decode for %q: %w", l.tr.key, err)
	}
	dw := e.q.UnquantizeProductInto(e.floats(n), sum)
	// The coded inputs carried 1/fx, the deltas 1/fd: undo both. The
	// quantization scales 2^(2l) are already removed by UnquantizeProductInto.
	rescale := l.fd * l.fx
	for j := range dw {
		dw[j] *= rescale
	}
	l.lin.AddGradW(dw, 1)
	e.phases.Decode += time.Since(t2)
	e.phases.Offloads++
	csp.End()
	return nil
}

// refillStores re-creates the device-side coded-input cache for one
// layer's backward pass: the trace's stored inputs are re-quantized with
// the forward normalization and re-encoded with the noise rows captured
// during forward — bit-identical coded vectors, so a quorum laggard's
// original store racing the refill is benign — then re-stored on the
// current fleet's slots with an identity-kernel flight gathered from every
// slot (the store is the point; the echoed results are discarded).
func (e *engine) refillStores(code *masking.Code, tr *trace, fx float64) error {
	if len(tr.noise) == 0 {
		return fmt.Errorf("sched: trace %q carries no captured noise (forward ran in inference mode?)", tr.key)
	}
	n := tr.inputs[0].Size()
	quantIn := make([]field.Vec, e.cfg.VirtualBatch)
	scratch := make([]float64, n)
	for i, x := range tr.inputs {
		for j, v := range x.Data {
			scratch[j] = v / fx
		}
		quantIn[i] = e.q.Quantize(scratch)
	}
	coded := make([]field.Vec, code.NumCoded())
	for j := range coded {
		coded[j] = field.NewVec(n)
	}
	if err := code.EncodeWith(coded, quantIn, tr.noise); err != nil {
		return err
	}
	e.refills++
	e.rec.Record(obs.Event{
		Kind: obs.KindRefill, Subsystem: "sched", Device: -1, Slot: -1,
		Detail: fmt.Sprintf("re-created device stores for %q", tr.key),
	})
	flight, err := e.beginFlight()
	if err != nil {
		return err
	}
	defer flight.End()
	t1 := time.Now()
	pend, err := flight.ForwardLayer(tr.key, func(x field.Vec) field.Vec { return x }, coded)
	if err != nil {
		return err
	}
	_, _, err = e.gather(pend, len(coded), t1)
	return err
}
