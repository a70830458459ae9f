package nn

import (
	"fmt"

	"darknight/internal/tensor"
)

// ReLU is the rectifier activation. In DarKnight it is a TEE-resident
// non-linear op (§3: "performing non-linear operations (ReLU, Maxpool)").
type ReLU struct {
	name   string
	shape  []int
	lastIn *tensor.Tensor
}

// NewReLU constructs a ReLU over the given geometry.
func NewReLU(name string, shape ...int) *ReLU {
	return &ReLU{name: name, shape: append([]int(nil), shape...)}
}

// Name implements Layer.
func (r *ReLU) Name() string { return r.name }

// OutShape implements Layer.
func (r *ReLU) OutShape() []int { return r.shape }

// Params implements Layer.
func (r *ReLU) Params() []*Param { return nil }

// Stats implements Layer.
func (r *ReLU) Stats() []LayerStat {
	n := prod(r.shape)
	return []LayerStat{{Name: r.name, Class: ClassReLU, MACs: n, InElems: n, OutElems: n}}
}

// Forward implements Layer.
func (r *ReLU) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	out := tensor.New(x.Shape...)
	r.ForwardInto(out, x, train)
	return out
}

// ForwardInto implements Resident.
//
//darknight:hotpath
func (r *ReLU) ForwardInto(dst, x *tensor.Tensor, train bool) {
	if train {
		r.lastIn = x
	}
	out := dst.Data[:len(x.Data)]
	for i, v := range x.Data {
		if v > 0 {
			out[i] = v
		} else {
			out[i] = 0
		}
	}
}

// Backward implements Layer.
func (r *ReLU) Backward(gout *tensor.Tensor) *tensor.Tensor {
	din := tensor.New(gout.Shape...)
	r.BackwardInto(din, r.lastIn, gout)
	return din
}

// BackwardInto implements Resident: the gradient passes where x was
// positive.
//
//darknight:hotpath
func (r *ReLU) BackwardInto(dst, x, gout *tensor.Tensor) {
	din := dst.Data[:len(x.Data)]
	for i, v := range x.Data {
		if v > 0 {
			din[i] = gout.Data[i]
		} else {
			din[i] = 0
		}
	}
}

// MaxPool is 2-D max pooling, a TEE-resident non-linear op.
type MaxPool struct {
	name   string
	p      tensor.PoolParams
	lastIn *tensor.Tensor
	out    []int // OutShape, built once; callers share it and never mutate it
}

// NewMaxPool constructs a max-pooling layer.
func NewMaxPool(name string, p tensor.PoolParams) *MaxPool {
	return &MaxPool{name: name, p: p, out: []int{p.C, p.OutH(), p.OutW()}}
}

// Name implements Layer.
func (m *MaxPool) Name() string { return m.name }

// OutShape implements Layer.
func (m *MaxPool) OutShape() []int { return m.out }

// Params implements Layer.
func (m *MaxPool) Params() []*Param { return nil }

// Stats implements Layer.
func (m *MaxPool) Stats() []LayerStat {
	out := int64(m.p.C) * int64(m.p.OutH()) * int64(m.p.OutW())
	return []LayerStat{{
		Name: m.name, Class: ClassMaxPool,
		MACs:    out * int64(m.p.K) * int64(m.p.K), // comparisons
		InElems: int64(m.p.C) * int64(m.p.InH) * int64(m.p.InW), OutElems: out,
	}}
}

// Forward implements Layer.
func (m *MaxPool) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	out := tensor.New(m.OutShape()...)
	m.ForwardInto(out, x, train)
	return out
}

// ForwardInto implements Resident.
//
//darknight:hotpath
func (m *MaxPool) ForwardInto(dst, x *tensor.Tensor, train bool) {
	if train {
		m.lastIn = x
	}
	tensor.MaxPool2DInto(dst.Data, x.Data, m.p)
}

// Backward implements Layer.
func (m *MaxPool) Backward(gout *tensor.Tensor) *tensor.Tensor {
	din := tensor.New(m.p.C, m.p.InH, m.p.InW)
	m.BackwardInto(din, m.lastIn, gout)
	return din
}

// BackwardInto implements Resident: each window's gradient goes to its
// maximum in x, under MaxPool2DInto's tie rule.
//
//darknight:hotpath
func (m *MaxPool) BackwardInto(dst, x, gout *tensor.Tensor) {
	tensor.MaxPool2DBackwardInto(dst.Data, gout.Data, x.Data, m.p)
}

// AvgPool is 2-D average pooling (global pooling in ResNet/MobileNet heads).
type AvgPool struct {
	name string
	p    tensor.PoolParams
	out  []int // OutShape, built once; callers share it and never mutate it
}

// NewAvgPool constructs an average-pooling layer.
func NewAvgPool(name string, p tensor.PoolParams) *AvgPool {
	return &AvgPool{name: name, p: p, out: []int{p.C, p.OutH(), p.OutW()}}
}

// Name implements Layer.
func (a *AvgPool) Name() string { return a.name }

// OutShape implements Layer.
func (a *AvgPool) OutShape() []int { return a.out }

// Params implements Layer.
func (a *AvgPool) Params() []*Param { return nil }

// Stats implements Layer.
func (a *AvgPool) Stats() []LayerStat {
	out := int64(a.p.C) * int64(a.p.OutH()) * int64(a.p.OutW())
	return []LayerStat{{
		Name: a.name, Class: ClassOther,
		MACs:    out * int64(a.p.K) * int64(a.p.K),
		InElems: int64(a.p.C) * int64(a.p.InH) * int64(a.p.InW), OutElems: out,
	}}
}

// Forward implements Layer.
func (a *AvgPool) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	out := tensor.New(a.OutShape()...)
	a.ForwardInto(out, x, train)
	return out
}

// ForwardInto implements Resident; the layer keeps no backward state.
//
//darknight:hotpath
func (a *AvgPool) ForwardInto(dst, x *tensor.Tensor, train bool) {
	tensor.AvgPool2DInto(dst.Data, x.Data, a.p)
}

// Backward implements Layer.
func (a *AvgPool) Backward(gout *tensor.Tensor) *tensor.Tensor {
	din := tensor.New(a.p.C, a.p.InH, a.p.InW)
	a.BackwardInto(din, nil, gout)
	return din
}

// BackwardInto implements Resident; the gradient does not depend on x.
//
//darknight:hotpath
func (a *AvgPool) BackwardInto(dst, x, gout *tensor.Tensor) {
	tensor.AvgPool2DBackwardInto(dst.Data, gout.Data, a.p)
}

// Flatten reshapes [C,H,W] feature maps into a dense-layer vector.
type Flatten struct {
	name    string
	inShape []int
	out     []int // OutShape, built once; callers share it and never mutate it
}

// NewFlatten constructs a flatten layer for the given input geometry.
func NewFlatten(name string, inShape ...int) *Flatten {
	return &Flatten{name: name, inShape: append([]int(nil), inShape...), out: []int{int(prod(inShape))}}
}

// Name implements Layer.
func (f *Flatten) Name() string { return f.name }

// OutShape implements Layer.
func (f *Flatten) OutShape() []int { return f.out }

// Params implements Layer.
func (f *Flatten) Params() []*Param { return nil }

// Stats implements Layer.
func (f *Flatten) Stats() []LayerStat {
	n := prod(f.inShape)
	return []LayerStat{{Name: f.name, Class: ClassOther, InElems: n, OutElems: n}}
}

// Forward implements Layer.
func (f *Flatten) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	out := tensor.New(f.OutShape()...)
	f.ForwardInto(out, x, train)
	return out
}

// ForwardInto implements Resident: x's elements, in order, under the flat
// shape. The layer keeps no backward state.
//
//darknight:hotpath
func (f *Flatten) ForwardInto(dst, x *tensor.Tensor, train bool) {
	checkSize(f.name, x.Size(), len(dst.Data))
	copy(dst.Data, x.Data)
}

// checkSize panics when a layer is handed an input of the wrong size.
func checkSize(name string, got, want int) {
	if got != want {
		panic(fmt.Sprintf("nn: %s input size %d, want %d", name, got, want))
	}
}

// Backward implements Layer.
func (f *Flatten) Backward(gout *tensor.Tensor) *tensor.Tensor {
	din := tensor.New(f.inShape...)
	f.BackwardInto(din, nil, gout)
	return din
}

// BackwardInto implements Resident: gout's elements, in order, under the
// input's shape; the gradient does not depend on x.
//
//darknight:hotpath
func (f *Flatten) BackwardInto(dst, x, gout *tensor.Tensor) {
	checkSize(f.name, gout.Size(), len(dst.Data))
	copy(dst.Data, gout.Data)
}
