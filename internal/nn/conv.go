package nn

import (
	"fmt"
	"math"
	"math/rand"

	"darknight/internal/field"
	"darknight/internal/tensor"
)

// Conv2D is a (optionally grouped/depthwise) 2-D convolution layer.
type Conv2D struct {
	name   string
	p      tensor.ConvParams
	w      *Param
	b      *Param
	lastIn *tensor.Tensor
	plan   convPlan
}

// NewConv2D constructs a convolution with Kaiming-normal init.
func NewConv2D(name string, p tensor.ConvParams, rng *rand.Rand) *Conv2D {
	p.Validate()
	cpg := p.InC / p.Groups
	w := tensor.New(p.OutC, cpg, p.KH, p.KW)
	fanIn := float64(cpg * p.KH * p.KW)
	w.RandNormal(rng, math.Sqrt(2.0/fanIn))
	return &Conv2D{
		name: name, p: p, plan: newConvPlan(p),
		w: &Param{Name: name + ".w", W: w, Grad: tensor.New(p.OutC, cpg, p.KH, p.KW)},
		b: &Param{Name: name + ".b", W: tensor.New(p.OutC), Grad: tensor.New(p.OutC)},
	}
}

// Conv returns the convolution geometry.
//
//lint:ignore testonly called by bench/benchkit; retarget in a benchmark PR (ROADMAP 1b/12)
func (c *Conv2D) Conv() tensor.ConvParams { return c.p }

// Name implements Layer.
func (c *Conv2D) Name() string { return c.name }

// OutShape implements Layer.
func (c *Conv2D) OutShape() []int { return []int{c.p.OutC, c.p.OutH(), c.p.OutW()} }

// Params implements Layer.
func (c *Conv2D) Params() []*Param { return []*Param{c.w, c.b} }

// Stats implements Layer.
func (c *Conv2D) Stats() []LayerStat {
	cpg := int64(c.p.InC / c.p.Groups)
	outElems := int64(c.p.OutC) * int64(c.p.OutH()) * int64(c.p.OutW())
	return []LayerStat{{
		Name: c.name, Class: ClassLinear,
		MACs:    outElems * cpg * int64(c.p.KH) * int64(c.p.KW),
		InElems: int64(c.p.InC) * int64(c.p.InH) * int64(c.p.InW), OutElems: outElems,
		Params: int64(c.p.OutC)*cpg*int64(c.p.KH)*int64(c.p.KW) + int64(c.p.OutC),
	}}
}

// Forward implements Layer.
func (c *Conv2D) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	if x.Size() != c.InLen() {
		panic(fmt.Sprintf("nn: %s input size %d, want %d", c.name, x.Size(), c.InLen()))
	}
	if train {
		c.lastIn = x
	}
	return tensor.Conv2D(x.Data, c.w.W, c.b.W.Data, c.p)
}

// Backward implements Layer.
func (c *Conv2D) Backward(gout *tensor.Tensor) *tensor.Tensor {
	din, dw, db := tensor.Conv2DBackward(c.lastIn.Data, c.w.W, gout, c.p)
	c.w.Grad.Add(dw)
	for i := range db {
		c.b.Grad.Data[i] += db[i]
	}
	return tensor.FromSlice(din, c.p.InC, c.p.InH, c.p.InW)
}

// BackwardInputOnly implements Linear. It deliberately avoids the cached
// forward input: dIn of a bilinear op depends only on W and gout, which is
// why the masked pipeline can call it for any example.
//
//darknight:hotpath
func (c *Conv2D) BackwardInputOnly(dst, gout *tensor.Tensor) {
	tensor.Conv2DGradInput(dst.Data, c.w.W, gout, c.p)
}

// InLen implements Linear.
func (c *Conv2D) InLen() int { return c.p.InC * c.p.InH * c.p.InW }

// OutLen implements Linear.
func (c *Conv2D) OutLen() int { return c.p.OutC * c.p.OutH() * c.p.OutW() }

// WLen implements Linear.
func (c *Conv2D) WLen() int { return c.w.W.Size() }

// WeightData implements Linear.
func (c *Conv2D) WeightData() []float64 { return c.w.W.Data }

// BiasData implements Linear.
func (c *Conv2D) BiasData() []float64 { return c.b.W.Data }

// LinearForwardFloat implements Linear (no bias).
func (c *Conv2D) LinearForwardFloat(x []float64) []float64 {
	return tensor.Conv2D(x, c.w.W, nil, c.p).Data
}

// LinearForwardField implements Linear: the convolution evaluated exactly
// over F_p on quantized weights and (possibly coded) quantized inputs —
// the kernel a DarKnight GPU worker runs: per group, the weights times the
// patch matrix (k over the patch rows, columns over the pixels). The
// result comes from the field scratch pool; its consumer may return it.
//
//darknight:hotpath
func (c *Conv2D) LinearForwardField(wq, x field.Vec) field.Vec {
	out := field.GetScratchVec(c.p.OutC * len(c.plan.pixOff))
	return c.gatherGEMM(out, wq, x, c.plan.rowOff, c.plan.pixOff)
}

// GradWeightsField implements Linear: dW = delta · colsᵀ over F_p, where
// delta is the (scaled, combined) output gradient [OutC×OutH×OutW] and x is
// the (coded) layer input. It is LinearForwardField's product with the
// roles swapped: k over the pixels, columns over the patch rows. The
// result comes from the field scratch pool.
//
//darknight:hotpath
func (c *Conv2D) GradWeightsField(delta, x field.Vec) field.Vec {
	out := field.GetScratchVec(c.p.OutC * len(c.plan.rowOff))
	return c.gatherGEMM(out, delta, x, c.plan.pixOff, c.plan.rowOff)
}

// gatherGEMM is both device passes: for each group, out = a · B mod p with
// B[k][j] the bordered input x at koff[k] + noff[j] (field.GatherMatMul,
// an implicit GEMM), a and out holding OutC/Groups rows per group.
//
//darknight:hotpath
func (c *Conv2D) gatherGEMM(out, a, x field.Vec, koff, noff []int) field.Vec {
	src := c.bordered(x)
	m, gl := c.p.OutC/c.p.Groups, c.plan.groupLen
	an, on := m*len(koff), m*len(noff)
	for g := 0; g < c.p.Groups; g++ {
		field.GatherMatMul(out[g*on:(g+1)*on], a[g*an:(g+1)*an], m, src[g*gl:(g+1)*gl], koff, noff)
	}
	if !c.plan.inPlace {
		field.PutScratchVec(src)
	}
	return out
}

// bordered returns x in the plan's hp×wp planes: x itself when they are
// the image, else a pooled copy with each image at (Pad, Pad).
func (c *Conv2D) bordered(x field.Vec) field.Vec {
	p, hp, wp := c.p, c.plan.hp, c.plan.wp
	if c.plan.inPlace {
		return x
	}
	buf := field.GetScratchVec(p.InC * hp * wp)
	clear(buf)
	for ch := 0; ch < p.InC; ch++ {
		for y := 0; y < p.InH; y++ {
			row := (ch*hp+y+p.Pad)*wp + p.Pad
			copy(buf[row:row+p.InW], x[(ch*p.InH+y)*p.InW:])
		}
	}
	return buf
}

// AddGradW implements Linear.
func (c *Conv2D) AddGradW(dw []float64, s float64) {
	for i, v := range dw {
		c.w.Grad.Data[i] += s * v
	}
}

// AddGradB implements Linear.
func (c *Conv2D) AddGradB(gout *tensor.Tensor, s float64) {
	npix := c.p.OutH() * c.p.OutW()
	for oc := 0; oc < c.p.OutC; oc++ {
		var sum float64
		for _, v := range gout.Data[oc*npix : (oc+1)*npix] {
			sum += v
		}
		c.b.Grad.Data[oc] += s * sum
	}
}

// convPlan is a convolution's patch matrix as offsets into its input,
// bordered with zeros: the element of patch row (c, ky, kx) at output
// pixel (oy, ox) of a group sits at rowOff[row] + pixOff[pix] in that
// group's channels. Both field kernels read the input through it.
type convPlan struct {
	rowOff   []int // (c, ky, kx) → c·hp·wp + ky·wp + kx, one group's patch rows
	pixOff   []int // (oy, ox) → oy·Stride·wp + ox·Stride
	groupLen int   // one group's channels of the bordered input, (InC/Groups)·hp·wp
	// hp×wp is a bordered channel: the image Pad wider on every side, and
	// wider still where the last window overhangs that (OutH and OutW
	// round toward zero, so a kernel may exceed the padded image).
	hp, wp  int
	inPlace bool // hp×wp is InH×InW: the input is its own bordered copy
}

func newConvPlan(p tensor.ConvParams) convPlan {
	oh, ow := p.OutH(), p.OutW()
	hp := max(p.InH+2*p.Pad, (oh-1)*p.Stride+p.KH)
	wp := max(p.InW+2*p.Pad, (ow-1)*p.Stride+p.KW)
	pl := convPlan{groupLen: p.InC / p.Groups * hp * wp, hp: hp, wp: wp, inPlace: hp == p.InH && wp == p.InW}
	for ch := 0; ch < p.InC/p.Groups; ch++ {
		for ky := 0; ky < p.KH; ky++ {
			for kx := 0; kx < p.KW; kx++ {
				pl.rowOff = append(pl.rowOff, (ch*hp+ky)*wp+kx)
			}
		}
	}
	for oy := 0; oy < oh; oy++ {
		for ox := 0; ox < ow; ox++ {
			pl.pixOff = append(pl.pixOff, oy*p.Stride*wp+ox*p.Stride)
		}
	}
	return pl
}
