// Package stack is the reference every runtime in the repository is
// checked against: the §3.1 flow and Algorithm 2 written literally, as
// plain loops on one goroutine, with no lanes, TEE token, noise pool,
// arena, flights or coding.
//
// Decode is exact over F_p (§3.1, Algorithms 1–2), so what a coded runtime
// decodes is exactly Σ w·x mod p over the quantized operands, whatever its
// K, M, E, noise, coefficients, gang, straggler slack or flight grouping.
// A batch's logits and the trained weights are therefore a pure function of
// the quantized inputs and weights, and this package computes that function
// directly: each bilinear layer normalizes by the shared max-abs factor,
// quantizes, applies the spec field kernel per example, unquantizes,
// rescales and adds the bias; the backward pass folds Σᵢ g(δᵢ, xᵢ) mod p
// the same way; Algorithm 2 aggregates the virtual batches' gradients in
// order and takes one SGD step. Everything outside the bilinear layers is
// the model's own nn code, called as the runtime calls it.
//
// Only _test.go files import stack. It is a package of its own because it
// walks nn models, and nn's tests import spec.
package stack

import (
	"darknight/internal/dataset"
	"darknight/internal/field"
	"darknight/internal/nn"
	"darknight/internal/quant"
	"darknight/internal/spec"
	"darknight/internal/tensor"
)

// normLimit bounds |activation| before quantization: the runtime's default
// max-abs normalization limit.
const normLimit = 1.0

// Ref runs a model the way the DarKnight runtime must, K examples at a
// time, at the runtime's default precision (quant.DefaultFracBits) and
// normalization limit.
type Ref struct {
	model *nn.Model
	k     int
	q     *quant.Quantizer
	// inputs holds, during a training step, the K inputs each layer saw on
	// the forward pass, for the backward pass to read.
	inputs map[nn.Layer][]*tensor.Tensor
}

// New returns the reference for model at virtual batch size k. It trains
// and evaluates model itself.
func New(model *nn.Model, k int) *Ref {
	return &Ref{model: model, k: k, q: quant.New(quant.DefaultFracBits)}
}

// Forward returns the logits of exactly K images in inference mode.
func (r *Ref) Forward(images [][]float64) []*tensor.Tensor {
	xs := make([]*tensor.Tensor, len(images))
	for i, img := range images {
		xs[i] = tensor.FromSlice(img, r.model.InShape...)
	}
	return r.forward(r.model.Stack, xs, false)
}

// TrainLargeBatch is Algorithm 2: floor(N/K) virtual batches, each one's
// ▽W computed on its own, summed in virtual-batch order, divided by the
// number of examples trained on, then one optimizer step. The tail beyond
// the last full virtual batch is dropped. It returns the mean of the
// virtual batches' mean losses.
func (r *Ref) TrainLargeBatch(batch []dataset.Example, opt *nn.SGD) float64 {
	params := r.model.Params()
	n := 0
	for _, p := range params {
		n += p.W.Size()
	}
	agg := make([]float64, n)
	vbatches := len(batch) / r.k
	var loss float64
	for v := 0; v < vbatches; v++ {
		for _, p := range params {
			p.ZeroGrad()
		}
		loss += r.trainVirtualBatch(batch[v*r.k : (v+1)*r.k])
		i := 0
		for _, p := range params {
			for _, g := range p.Grad.Data {
				agg[i] += g
				i++
			}
		}
	}
	inv := 1.0 / float64(vbatches*r.k)
	i := 0
	for _, p := range params {
		for j := range p.Grad.Data {
			p.Grad.Data[j] = agg[i] * inv
			i++
		}
	}
	opt.Step(params)
	return loss / float64(vbatches)
}

// trainVirtualBatch runs the forward and backward pass of K examples,
// accumulating their summed gradients into the params, and returns the
// mean loss.
func (r *Ref) trainVirtualBatch(examples []dataset.Example) float64 {
	r.inputs = map[nn.Layer][]*tensor.Tensor{}
	defer func() { r.inputs = nil }()
	xs := make([]*tensor.Tensor, len(examples))
	for i, ex := range examples {
		xs[i] = tensor.FromSlice(ex.Image, r.model.InShape...)
	}
	logits := r.forward(r.model.Stack, xs, true)
	grads := make([]*tensor.Tensor, len(examples))
	var total float64
	for i, ex := range examples {
		loss, g := nn.SoftmaxCrossEntropy(logits[i], ex.Label)
		total += loss
		grads[i] = g
	}
	r.backward(r.model.Stack, grads)
	return total / float64(len(examples))
}

func (r *Ref) forward(layer nn.Layer, xs []*tensor.Tensor, train bool) []*tensor.Tensor {
	if r.inputs != nil {
		r.inputs[layer] = xs
	}
	switch l := layer.(type) {
	case *nn.Sequential:
		for _, child := range l.Layers() {
			xs = r.forward(child, xs, train)
		}
		return xs
	case *nn.Residual:
		body := r.forward(l.Body(), xs, train)
		skip := xs
		if l.Skip() != nil {
			skip = r.forward(l.Skip(), xs, train)
		}
		return sum(body, skip)
	case nn.Linear:
		return r.linear(l, xs)
	default:
		outs := make([]*tensor.Tensor, len(xs))
		for i, x := range xs {
			outs[i] = layer.Forward(x, train)
		}
		return outs
	}
}

// linear is one bilinear layer's forward pass (§3.1, Algorithm 1): both
// operands normalized into [-1, 1] — the K inputs by one shared factor —
// and quantized, the exact product over F_p, then the floats restored,
// the normalizations undone and the bias added.
func (r *Ref) linear(lin nn.Linear, xs []*tensor.Tensor) []*tensor.Tensor {
	fx := normFactor(xs)
	fw := 1.0
	if m := maxAbs(lin.WeightData()); m > normLimit {
		fw = m / normLimit
	}
	wq := r.q.Quantize(scaled(lin.WeightData(), fw))
	outs := make([]*tensor.Tensor, len(xs))
	for i, x := range xs {
		y := r.q.UnquantizeProduct(forwardField(lin, wq, r.q.Quantize(scaled(x.Data, fx))))
		for j := range y {
			y[j] *= fx * fw
		}
		addBias(lin, y)
		outs[i] = tensor.FromSlice(y, lin.OutShape()...)
	}
	return outs
}

// backward reverses forward over the layer's recorded inputs and returns
// the gradients with respect to them.
func (r *Ref) backward(layer nn.Layer, grads []*tensor.Tensor) []*tensor.Tensor {
	switch l := layer.(type) {
	case *nn.Sequential:
		children := l.Layers()
		for i := len(children) - 1; i >= 0; i-- {
			grads = r.backward(children[i], grads)
		}
		return grads
	case *nn.Residual:
		dBody := r.backward(l.Body(), grads)
		dSkip := grads
		if l.Skip() != nil {
			dSkip = r.backward(l.Skip(), grads)
		}
		return sum(dBody, dSkip)
	case nn.Linear:
		return r.linearBackward(l, grads)
	default:
		xs := r.inputs[layer]
		outs := make([]*tensor.Tensor, len(grads))
		for i, g := range grads {
			// A layer caches one example's forward state: replay it.
			layer.Forward(xs[i], true)
			outs[i] = layer.Backward(g)
		}
		return outs
	}
}

// linearBackward is one bilinear layer's backward pass (Eq 4–6): the bias
// gradient from the float deltas; the weight gradient Σᵢ g(δᵢ, xᵢ) mod p
// over the deltas and the inputs, each set quantized under its own shared
// normalization, restored and rescaled; and the input gradients, which
// need no coding.
func (r *Ref) linearBackward(lin nn.Linear, deltas []*tensor.Tensor) []*tensor.Tensor {
	xs := r.inputs[lin]
	for _, d := range deltas {
		lin.AddGradB(d, 1)
	}
	fd, fx := normFactor(deltas), normFactor(xs)
	sum := field.NewVec(lin.WLen())
	for i, x := range xs {
		g := gradField(lin, r.q.Quantize(scaled(deltas[i].Data, fd)), r.q.Quantize(scaled(x.Data, fx)))
		for j := range sum {
			sum[j] = field.Add(sum[j], g[j])
		}
	}
	dw := r.q.UnquantizeProduct(sum)
	for j := range dw {
		dw[j] *= fd * fx
	}
	lin.AddGradW(dw, 1)
	next := make([]*tensor.Tensor, len(deltas))
	for i, d := range deltas {
		next[i] = lin.BackwardInputOnly(d)
	}
	return next
}

// forwardField is the layer's linear part over F_p, by the spec kernel.
func forwardField(lin nn.Linear, wq, x field.Vec) field.Vec {
	switch l := lin.(type) {
	case *nn.Dense:
		return spec.DenseForward(wq, x, l.OutLen())
	case *nn.Conv2D:
		return spec.ConvForward(spec.Conv(l.Conv()), wq, x)
	}
	panic("stack: no reference kernel for " + lin.Name())
}

// gradField is the layer's weight gradient over F_p, by the spec kernel.
func gradField(lin nn.Linear, delta, x field.Vec) field.Vec {
	switch l := lin.(type) {
	case *nn.Dense:
		return spec.DenseGrad(delta, x)
	case *nn.Conv2D:
		return spec.ConvGrad(spec.Conv(l.Conv()), delta, x)
	}
	panic("stack: no reference kernel for " + lin.Name())
}

// addBias adds a dense layer's bias per element, a convolution's per
// output channel.
func addBias(lin nn.Linear, y []float64) {
	bias := lin.BiasData()
	plane := len(y) / len(bias)
	for c, b := range bias {
		for j := c * plane; j < (c+1)*plane; j++ {
			y[j] += b
		}
	}
}

// normFactor is the shared max-abs normalization divisor of a set of
// tensors: max(1, max_i max|x_i| / normLimit).
func normFactor(xs []*tensor.Tensor) float64 {
	m := 0.0
	for _, x := range xs {
		m = max(m, x.MaxAbs())
	}
	return max(1, m/normLimit)
}

func maxAbs(xs []float64) float64 {
	m := 0.0
	for _, v := range xs {
		if v < 0 {
			v = -v
		}
		m = max(m, v)
	}
	return m
}

func scaled(xs []float64, f float64) []float64 {
	out := make([]float64, len(xs))
	for i, v := range xs {
		out[i] = v / f
	}
	return out
}

// sum adds two per-example tensor sets, as a residual join does.
func sum(a, b []*tensor.Tensor) []*tensor.Tensor {
	out := make([]*tensor.Tensor, len(a))
	for i := range a {
		out[i] = a[i].Clone()
		out[i].Add(b[i])
	}
	return out
}
