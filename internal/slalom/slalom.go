// Package slalom implements the Slalom baseline (Tramèr & Boneh, ICLR'18)
// the paper compares against in §7.2: TEE-GPU inference where the enclave
// blinds each linear layer's input with an additive stream-cipher noise r,
// the GPU computes W·(x+r), and the enclave unblinds by subtracting the
// PRECOMPUTED W·r. The precomputation is exactly why Slalom cannot train:
// the unblinding factors bake in W, and W changes every batch. The test
// suite demonstrates that failure mode explicitly.
package slalom

import (
	"errors"
	"fmt"
	"math/rand"

	"darknight/internal/field"
	"darknight/internal/nn"
	"darknight/internal/quant"
	"darknight/internal/tensor"
)

// Engine is a Slalom inference session for one model. Blinding factors r
// and unblinding factors W·r are precomputed per linear layer (Slalom
// stores them encrypted outside the enclave; we keep the byte accounting
// in Stats).
type Engine struct {
	model *nn.Model
	q     *quant.Quantizer
	rng   *rand.Rand

	layers    []nn.Linear
	blinds    []field.Vec // r per linear layer
	unblinds  []field.Vec // W·r per linear layer (precomputed!)
	wq        []field.Vec // quantized weights as of precomputation
	verify    bool
	stats     Stats
	normLimit float64
}

// Stats counts Slalom's data movement for the performance comparison.
type Stats struct {
	PrecomputeOps   int64 // field MACs spent on W·r
	UnblindBytes    int64 // precomputed factors streamed back into the TEE
	GPUJobs         int64
	IntegrityChecks int64
}

// ErrIntegrity is returned when Freivalds verification rejects a result.
var ErrIntegrity = errors.New("slalom: integrity check failed")

// New precomputes blinding state for the model's current weights.
func New(model *nn.Model, verify bool, seed int64) *Engine {
	e := &Engine{
		model:     model,
		q:         quant.Default(),
		rng:       rand.New(rand.NewSource(seed)),
		verify:    verify,
		normLimit: 1.0,
	}
	e.Precompute()
	return e
}

// Precompute draws fresh r for every linear layer and computes W·r with
// the CURRENT weights. Slalom does this offline before inference.
func (e *Engine) Precompute() {
	e.layers = e.model.LinearLayers()
	e.blinds = make([]field.Vec, len(e.layers))
	e.unblinds = make([]field.Vec, len(e.layers))
	e.wq = make([]field.Vec, len(e.layers))
	for i, lin := range e.layers {
		r := field.RandVec(e.rng, lin.InLen())
		e.blinds[i] = r
		wq := e.q.Quantize(lin.WeightData())
		e.wq[i] = wq
		e.unblinds[i] = lin.LinearForwardField(wq, r)
		e.stats.PrecomputeOps += int64(lin.InLen()) * int64(lin.OutLen())
	}
}

// Infer classifies one image. Each linear layer runs "on the GPU" over the
// blinded input; non-linear layers run in the TEE.
func (e *Engine) Infer(image []float64) (int, error) {
	logits, err := e.forward(image)
	if err != nil {
		return 0, err
	}
	return nn.Argmax(logits), nil
}

func (e *Engine) forward(image []float64) (*tensor.Tensor, error) {
	x := tensor.FromSlice(image, e.model.InShape...)
	linIdx := 0
	var walk func(layer nn.Layer, x *tensor.Tensor) (*tensor.Tensor, error)
	walk = func(layer nn.Layer, x *tensor.Tensor) (*tensor.Tensor, error) {
		switch v := layer.(type) {
		case *nn.Sequential:
			var err error
			for _, child := range v.Layers() {
				x, err = walk(child, x)
				if err != nil {
					return nil, err
				}
			}
			return x, nil
		case *nn.Residual:
			body, err := walk(v.Body(), x)
			if err != nil {
				return nil, err
			}
			skip := x
			if v.Skip() != nil {
				skip, err = walk(v.Skip(), x)
				if err != nil {
					return nil, err
				}
			}
			out := body.Clone()
			out.Add(skip)
			return out, nil
		default:
			if lin, ok := layer.(nn.Linear); ok {
				out, err := e.linearBlinded(linIdx, lin, x)
				linIdx++
				return out, err
			}
			return layer.Forward(x, false), nil
		}
	}
	return walk(e.model.Stack, x)
}

// linearBlinded runs one linear layer through the blind/offload/unblind
// cycle. The blinded input (x+r) is a one-time pad over F_p, the same
// privacy argument DarKnight generalizes.
func (e *Engine) linearBlinded(idx int, lin nn.Linear, x *tensor.Tensor) (*tensor.Tensor, error) {
	if idx >= len(e.layers) {
		return nil, fmt.Errorf("slalom: linear layer %d beyond precomputed state", idx)
	}
	// TEE: normalize, quantize, blind.
	f := x.MaxAbs() / e.normLimit
	if f < 1 {
		f = 1
	}
	scaled := make([]float64, x.Size())
	for i, v := range x.Data {
		scaled[i] = v / f
	}
	xq := e.q.Quantize(scaled)
	blinded := field.AddVec(xq, e.blinds[idx])

	// GPU: W·(x+r) in the field.
	gout := lin.LinearForwardField(e.wq[idx], blinded)
	e.stats.GPUJobs++

	// Optional Freivalds-style verification: re-check the GPU result on a
	// random projection. Honest kernel here; the check costs show up in
	// the perf model.
	if e.verify {
		e.stats.IntegrityChecks++
		if !e.freivaldsOK(lin, blinded, gout) {
			return nil, ErrIntegrity
		}
	}

	// TEE: unblind with the precomputed W·r, restore floats, add bias.
	e.stats.UnblindBytes += int64(len(e.unblinds[idx])) * 4
	clean := field.SubVec(gout, e.unblinds[idx])
	y := e.q.UnquantizeProduct(clean)
	for i := range y {
		y[i] *= f
	}
	bias := lin.BiasData()
	outShape := lin.OutShape()
	addBiasSlalom(y, bias, outShape)
	return tensor.FromSlice(y, outShape...), nil
}

// freivaldsOK probabilistically verifies gout == W·blinded by comparing a
// random linear projection of both sides (one extra matvec instead of a
// full recompute — Freivalds' algorithm).
func (e *Engine) freivaldsOK(lin nn.Linear, blinded, gout field.Vec) bool {
	// Project with a random +/-1-ish field vector s: check s·gout ==
	// (sᵀW)·blinded. We only have the kernel, not W's layout, so evaluate
	// both sides with one extra kernel call on a random input instead:
	// kernel linearity gives kernel(blinded + s) - kernel(s) == gout for
	// honest results.
	s := field.RandVec(e.rng, len(blinded))
	lhs := lin.LinearForwardField(e.wq[indexOf(e.layers, lin)], field.AddVec(blinded, s))
	rhs := lin.LinearForwardField(e.wq[indexOf(e.layers, lin)], s)
	diff := field.SubVec(lhs, rhs)
	return diff.Equal(gout)
}

func indexOf(layers []nn.Linear, l nn.Linear) int {
	for i, x := range layers {
		if x == l {
			return i
		}
	}
	return -1
}

// Unblind exposes the raw unblinding machinery so tests can demonstrate
// the §7.2 failure: after a weight update, decoding with STALE factors
// produces garbage. It computes W_new·(x+r) − (W_old·r) for layer idx.
func (e *Engine) StaleDecode(idx int, lin nn.Linear, x []float64) []float64 {
	xq := e.q.Quantize(x)
	blinded := field.AddVec(xq, e.blinds[idx])
	wqNew := e.q.Quantize(lin.WeightData()) // CURRENT weights
	gout := lin.LinearForwardField(wqNew, blinded)
	clean := field.SubVec(gout, e.unblinds[idx]) // STALE W_old·r
	return e.q.UnquantizeProduct(clean)
}

func addBiasSlalom(y []float64, bias []float64, outShape []int) {
	if bias == nil {
		return
	}
	if len(bias) == len(y) {
		for i := range y {
			y[i] += bias[i]
		}
		return
	}
	plane := len(y) / len(bias)
	for c := range bias {
		b := bias[c]
		seg := y[c*plane : (c+1)*plane]
		for i := range seg {
			seg[i] += b
		}
	}
}
