package sched

import (
	"fmt"
	"time"

	"darknight/internal/field"
	"darknight/internal/gpu"
	"darknight/internal/masking"
	"darknight/internal/nn"
	"darknight/internal/obs"
	"darknight/internal/scratch"
	"darknight/internal/tensor"
)

// This file is the backward half of the TEE-side engine: the reverse model
// walk, the Eq (4–6) gradient offload and its straggler-tolerant
// dual-window gather, run by every TrainPipeline lane on top of the
// forward walk in engine.go.

// backward runs a virtual batch's backward pass in two stages. The walk
// (backwardLayer) reverses the forward trace on the TEE — bias gradients,
// the input-gradient chain, the public delta combinations — and ships every
// bilinear layer's weight-gradient equations as it reaches them, without
// waiting for any device: layer l's equations need only δ_l, which the
// TEE's own input-gradient chain produced, and the coded inputs the batch's
// flight kept from its forward pass, so no device result is on the walk's
// critical path.
// The settle stage then gathers, decodes and accumulates every shipped
// layer in walk order. The first error in walk order is returned. Nothing
// reads the gradient with respect to the batch's inputs, so the walk does
// not compute it.
//
// The walk's δ tensors live in the batch's memory, its quantized deltas in
// the coded arena (which the forward pass is done with), and so do the
// shipped equations of a layer whose gather waits for every one of them
// (see equation). A layer left ungathered by an earlier layer's error may
// still have such equations on a device that can block, so then the arena
// is left to those jobs and the lane starts a fresh one.
func (e *engine) backward(code *masking.Code, tr *trace, grads []*tensor.Tensor) error {
	e.arena.Reset()
	_, err := e.backwardLayer(code, tr, grads, false)
	var settleErr error
	for i := range e.pending {
		if settleErr = e.gatherBackward(code, &e.pending[i]); settleErr != nil {
			e.arena = scratch.Arena[field.Elem]{}
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

// backwardLayer reverses forwardLayer, returning per-example input grads
// when needInput is set and nil otherwise: the walk's lowest layers skip
// the input gradient nobody reads. Bilinear layers are shipped onto
// e.pending, not gathered (see backward).
func (e *engine) backwardLayer(code *masking.Code, tr *trace, grads []*tensor.Tensor, needInput bool) ([]*tensor.Tensor, error) {
	switch v := tr.layer.(type) {
	case *nn.Sequential:
		// Unless the caller wants the sequence's input gradient, the walk
		// stops at the lowest child with parameters, which is asked for
		// none: the children below it have nothing to accumulate.
		lowest := 0
		if !needInput {
			lowest = len(tr.children)
			for i, c := range tr.children {
				if trainable(c) {
					lowest = i
					break
				}
			}
		}
		cur := grads
		var err error
		for i := len(tr.children) - 1; i >= lowest; i-- {
			if cur, err = e.backwardLayer(code, tr.children[i], cur, needInput || i > lowest); err != nil {
				return nil, err
			}
		}
		if !needInput {
			return nil, nil
		}
		return cur, nil
	case *nn.Residual:
		dBody, err := e.backwardLayer(code, tr.children[0], grads, needInput)
		if err != nil {
			return nil, err
		}
		dSkip := grads
		if v.Skip() != nil {
			dSkip, err = e.backwardLayer(code, tr.children[1], grads, needInput)
			if err != nil {
				return nil, err
			}
		}
		if !needInput {
			return nil, nil
		}
		return e.mem.sum(dBody, dSkip), nil
	case nn.Linear:
		return e.offloadBackward(code, tr, v, grads, needInput)
	case nn.Resident:
		if !needInput && len(v.Params()) == 0 {
			return nil, nil // nothing to accumulate, nothing asked for
		}
		// Each example's backward derives what it needs from that
		// example's input, so no layer state from its forward is read.
		out := e.mem.set(len(grads))
		for i, g := range grads {
			x := tr.inputs[i]
			out[i] = e.mem.tensor(x.Shape, x.Size())
			v.BackwardInto(out[i], x, g)
		}
		return out, nil
	default:
		return nil, fmt.Errorf("sched: layer %s is neither bilinear nor TEE-resident", tr.layer.Name())
	}
}

// trainable reports whether a traced layer, or any layer inside it, has
// parameters whose gradients the backward pass accumulates.
func trainable(tr *trace) bool {
	if len(tr.children) > 0 {
		for _, c := range tr.children {
			if trainable(c) {
				return true
			}
		}
		return false
	}
	if _, ok := tr.layer.(nn.Linear); ok {
		return true
	}
	return len(tr.layer.Params()) > 0
}

// bwdLayer is one shipped layer's backward state awaiting settlement:
// whether both decode windows shipped and the unscaling factors the decode
// needs.
type bwdLayer struct {
	tr     *trace
	lin    nn.Linear
	dual   bool // both windows shipped: the primary equations, then the secondary
	fd, fx float64
	sp     *obs.Span
	pend   *gpu.LayerPending // the shipped equations
}

// offloadBackward ships one bilinear layer's weight-gradient equations
// (Eq 4–6) down the batch's flight and queues the layer on e.pending for
// backward to settle. grads is the gradient flowing into the layer; the
// per-example input gradients below it are returned when needInput is set.
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
func (e *engine) offloadBackward(code *masking.Code, tr *trace, lin nn.Linear, cur []*tensor.Tensor, needInput bool) ([]*tensor.Tensor, error) {
	k := e.cfg.VirtualBatch
	t0 := time.Now()
	l := bwdLayer{tr: tr, lin: lin, sp: e.sp.Child("offload-backward")}
	if l.sp != nil {
		l.sp.Annotate("layer", layerName(tr.lin))
	}
	esp := l.sp.Child("encode")
	// Bias gradient: TEE-side, cheap, uses only the public δ.
	for i := 0; i < k; i++ {
		lin.AddGradB(cur[i], 1)
	}
	// Shared normalization so the decoded SUM can be unscaled exactly.
	l.fd = sharedNormFactor(cur)
	l.fx = sharedNormFactor(tr.inputs)
	n := lin.OutLen()
	scaled := e.floats(n)
	quantDeltas := slots(&e.quantIn, k)
	for i := 0; i < k; i++ {
		for j, v := range cur[i].Data {
			scaled[j] = v / l.fd
		}
		quantDeltas[i] = e.q.QuantizeInto(e.arena.Get(n), scaled)
	}
	// Each GPU j computes Eq_j on (Σ_i β_ji·δ_i, x̄_j). The combination
	// happens GPU-side in the paper; B and δ are public either way.
	l.dual = e.cfg.StragglerSlack > 0 && code.E >= 1
	eqs := slots(&e.eqs, 2*code.S)
	prim, sec := eqs[:code.S], eqs[code.S:]
	e.combineDeltas(prim, code.B, n, quantDeltas, l.dual)
	if l.dual {
		e.combineDeltas(sec, code.SecondaryB(), n, quantDeltas, true)
	} else {
		sec = nil
	}
	// Input gradient: input-independent linear op, offloadable without
	// coding (paper §4.2, computation (2)); computed here functionally.
	var next []*tensor.Tensor
	if needInput {
		next = e.mem.set(k)
		for i, x := range tr.inputs {
			next[i] = e.mem.tensor(x.Shape, x.Size())
			lin.BackwardInputOnly(next[i], cur[i])
		}
	}
	esp.End()
	e.phases.Encode += time.Since(t0)

	t1 := time.Now()
	pend, err := e.flight.GradLayer(tr.fwd, func(delta, x field.Vec) field.Vec { return lin.GradWeightsField(delta, x) }, prim, sec)
	e.phases.Dispatch += time.Since(t1)
	if err != nil {
		return nil, err
	}
	l.pend = pend
	e.pending = append(e.pending, l)
	return next, nil
}

// combineDeltas forms the len(bars) public delta combinations
// bars[j] = Σ_i b_ji·δ_i of n elements each — row j of b is exactly
// equation j's K coefficients, one fused lazy-reduced combine each — in
// the memory equation hands out.
//
//darknight:hotpath
func (e *engine) combineDeltas(bars []field.Vec, b *field.Mat, n int, quantDeltas []field.Vec, dual bool) {
	for j := range bars {
		bars[j] = e.equation(n, dual)
		field.Combine(bars[j], b.Row(j), quantDeltas)
	}
}

// equation returns the memory for one shipped backward equation of n
// elements. The equations escape to the flight's slot workers. With one
// decode window the gather waits for every one of them, so they live in
// the coded arena, which the lane reuses only after its batch; with both
// windows a quorum gather returns around a laggard that may still read its
// equation while the lane's next batch reuses the arena, so each is a
// fresh vector left to the laggard (the rule the staged weights follow;
// see stage).
//
//darknight:hotpath
func (e *engine) equation(n int, dual bool) field.Vec {
	if dual {
		return field.NewVec(n)
	}
	return e.arena.Get(n)
}

// gatherBackward gathers one shipped layer and folds its equations into the
// layer's weight gradient.
func (e *engine) gatherBackward(code *masking.Code, l *bwdLayer) error {
	// Ending the layer's span also ends any phase child left open by an
	// error return; layers never reached are ended with the batch's span.
	defer l.sp.End()
	dsp := l.sp.Child("dispatch")
	eqs, present := e.gather(l.pend, code.S, time.Now())
	dsp.End()

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
	if l.dual {
		prim, sec = eqs[:code.S], eqs[code.S:]
		if present != nil {
			primPresent, secPresent = present[:code.S], present[code.S:]
		}
	}
	err := code.DecodeBackwardSubsetInto(sum, prim, sec, primPresent, secPresent)
	recycle(eqs, present)
	if err != nil {
		return fmt.Errorf("sched: backward decode for %q: %w", layerName(l.tr.lin), err)
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
