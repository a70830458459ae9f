package nn

import (
	"fmt"
	"math"
	"math/rand"

	"darknight/internal/field"
	"darknight/internal/tensor"
)

// Dense is a fully-connected layer y = W·x + b with W ∈ R^{out×in}.
type Dense struct {
	name    string
	in, out int
	w       *Param
	b       *Param
	lastIn  *tensor.Tensor
}

// NewDense constructs a dense layer with Kaiming-uniform init.
func NewDense(name string, in, out int, rng *rand.Rand) *Dense {
	w := tensor.New(out, in)
	bound := math.Sqrt(6.0 / float64(in))
	w.RandUniform(rng, bound)
	return &Dense{
		name: name, in: in, out: out,
		w: &Param{Name: name + ".w", W: w, Grad: tensor.New(out, in)},
		b: &Param{Name: name + ".b", W: tensor.New(out), Grad: tensor.New(out)},
	}
}

// Name implements Layer.
func (d *Dense) Name() string { return d.name }

// OutShape implements Layer.
func (d *Dense) OutShape() []int { return []int{d.out} }

// Params implements Layer.
func (d *Dense) Params() []*Param { return []*Param{d.w, d.b} }

// Stats implements Layer.
func (d *Dense) Stats() []LayerStat {
	return []LayerStat{{
		Name: d.name, Class: ClassLinear,
		MACs:    int64(d.in) * int64(d.out),
		InElems: int64(d.in), OutElems: int64(d.out),
		Params: int64(d.in)*int64(d.out) + int64(d.out),
	}}
}

// Forward implements Layer.
func (d *Dense) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	if x.Size() != d.in {
		panic(fmt.Sprintf("nn: %s input size %d, want %d", d.name, x.Size(), d.in))
	}
	if train {
		d.lastIn = x
	}
	y := d.LinearForwardFloat(x.Data)
	for i := range y {
		y[i] += d.b.W.Data[i]
	}
	return tensor.FromSlice(y, d.out)
}

// Backward implements Layer.
func (d *Dense) Backward(gout *tensor.Tensor) *tensor.Tensor {
	// dW += gout ⊗ x, dB += gout.
	for i := 0; i < d.out; i++ {
		g := gout.Data[i]
		if g != 0 {
			row := d.w.Grad.Data[i*d.in : (i+1)*d.in]
			for j, xv := range d.lastIn.Data {
				row[j] += g * xv
			}
		}
		d.b.Grad.Data[i] += g
	}
	din := tensor.New(d.in)
	d.BackwardInputOnly(din, gout)
	return din
}

// BackwardInputOnly implements Linear: dX = Wᵀ·gout.
//
//darknight:hotpath
func (d *Dense) BackwardInputOnly(dst, gout *tensor.Tensor) {
	tensor.MatVecTransInto(dst.Data, d.w.W, gout.Data)
}

// InLen implements Linear.
func (d *Dense) InLen() int { return d.in }

// OutLen implements Linear.
func (d *Dense) OutLen() int { return d.out }

// WLen implements Linear.
func (d *Dense) WLen() int { return d.in * d.out }

// WeightData implements Linear.
func (d *Dense) WeightData() []float64 { return d.w.W.Data }

// BiasData implements Linear.
func (d *Dense) BiasData() []float64 { return d.b.W.Data }

// LinearForwardFloat implements Linear: y = W·x (no bias).
func (d *Dense) LinearForwardFloat(x []float64) []float64 {
	return tensor.MatVecInto(make([]float64, d.out), d.w.W, x)
}

// LinearForwardField implements Linear over F_p. The result comes from
// the field scratch pool; its consumer may return it.
//
//darknight:hotpath
func (d *Dense) LinearForwardField(wq, x field.Vec) field.Vec {
	y := field.GetScratchVec(d.out)
	for i := 0; i < d.out; i++ {
		y[i] = field.Dot(wq[i*d.in:(i+1)*d.in], x)
	}
	return y
}

// GradWeightsField implements Linear: flat outer product delta ⊗ x. The
// result comes from the field scratch pool.
//
//darknight:hotpath
func (d *Dense) GradWeightsField(delta, x field.Vec) field.Vec {
	out := field.GetScratchVec(d.out * d.in)
	for i, dv := range delta {
		row := out[i*d.in : (i+1)*d.in]
		if dv == 0 {
			clear(row)
			continue
		}
		for j, xv := range x {
			row[j] = field.Mul(dv, xv)
		}
	}
	return out
}

// AddGradW implements Linear.
func (d *Dense) AddGradW(dw []float64, s float64) {
	for i, v := range dw {
		d.w.Grad.Data[i] += s * v
	}
}

// AddGradB implements Linear.
func (d *Dense) AddGradB(gout *tensor.Tensor, s float64) {
	for i := 0; i < d.out; i++ {
		d.b.Grad.Data[i] += s * gout.Data[i]
	}
}
