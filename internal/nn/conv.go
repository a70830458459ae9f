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
}

// NewConv2D constructs a convolution with Kaiming-normal init.
func NewConv2D(name string, p tensor.ConvParams, rng *rand.Rand) *Conv2D {
	p.Validate()
	cpg := p.InC / p.Groups
	w := tensor.New(p.OutC, cpg, p.KH, p.KW)
	fanIn := float64(cpg * p.KH * p.KW)
	w.RandNormal(rng, math.Sqrt(2.0/fanIn))
	return &Conv2D{
		name: name, p: p,
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
	c.lastIn = x
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
// why the masked pipeline can call it for any example without re-priming
// the layer.
func (c *Conv2D) BackwardInputOnly(gout *tensor.Tensor) *tensor.Tensor {
	din := tensor.Conv2DGradInput(c.w.W, gout, c.p)
	return tensor.FromSlice(din, c.p.InC, c.p.InH, c.p.InW)
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
// the kernel a DarKnight GPU worker runs. Each output row accumulates its
// ≤(P-1)² products in a pooled uint64 row with lazy reduction (one `% P`
// per element per field.MaxLazyTerms terms instead of one per term), and
// the im2col patch matrix comes from the shared scratch pool instead of a
// fresh allocation per dispatch.
//
//darknight:hotpath
func (c *Conv2D) LinearForwardField(wq, x field.Vec) field.Vec {
	p := c.p
	cols, rows, npix := fieldIm2ColPooled(x, p)
	defer field.PutScratchVec(cols)
	acc0 := field.GetScratchAcc(npix)
	acc1 := field.GetScratchAcc(npix)
	defer field.PutScratchAcc(acc0)
	defer field.PutScratchAcc(acc1)
	ocpg := p.OutC / p.Groups
	//lint:ignore hotpathalloc the output vector escapes to the GPU flight; one make per dispatch by design
	out := make(field.Vec, p.OutC*npix)
	for g := 0; g < p.Groups; g++ {
		gcols := cols[g*rows*npix : (g+1)*rows*npix]
		oc := 0
		// Output-row pairs: one pass over the patch matrix feeds two
		// accumulator rows (LazyAXPY2), halving cols traffic.
		for ; oc+2 <= ocpg; oc += 2 {
			w0 := wq[(g*ocpg+oc)*rows : (g*ocpg+oc+1)*rows]
			w1 := wq[(g*ocpg+oc+1)*rows : (g*ocpg+oc+2)*rows]
			clearAcc(acc0)
			clearAcc(acc1)
			var terms field.Budget
			for r := 0; r < rows; r++ {
				c0, c1 := w0[r], w1[r]
				if c0 == 0 && c1 == 0 {
					continue
				}
				cRow := gcols[r*npix : (r+1)*npix]
				switch {
				case c1 == 0:
					field.LazyAXPY(acc0, c0, cRow)
				case c0 == 0:
					field.LazyAXPY(acc1, c1, cRow)
				default:
					field.LazyAXPY2(acc0, acc1, c0, c1, cRow)
				}
				terms.Tick2(acc0, acc1)
			}
			field.ReduceAccInto(out[(g*ocpg+oc)*npix:(g*ocpg+oc+1)*npix], acc0)
			field.ReduceAccInto(out[(g*ocpg+oc+1)*npix:(g*ocpg+oc+2)*npix], acc1)
		}
		for ; oc < ocpg; oc++ {
			wRow := wq[(g*ocpg+oc)*rows : (g*ocpg+oc+1)*rows]
			clearAcc(acc0)
			var terms field.Budget
			for r, wv := range wRow {
				if wv == 0 {
					continue
				}
				field.LazyAXPY(acc0, wv, gcols[r*npix:(r+1)*npix])
				terms.Tick1(acc0)
			}
			field.ReduceAccInto(out[(g*ocpg+oc)*npix:(g*ocpg+oc+1)*npix], acc0)
		}
	}
	return out
}

func clearAcc(acc []uint64) {
	for i := range acc {
		acc[i] = 0
	}
}

// GradWeightsField implements Linear: dW = delta · colsᵀ over F_p, where
// delta is the (scaled, combined) output gradient [OutC×OutH×OutW] and x is
// the (coded) layer input. field.Dot is already lazy-reduced; the patch
// matrix is pooled.
func (c *Conv2D) GradWeightsField(delta, x field.Vec) field.Vec {
	p := c.p
	cols, rows, npix := fieldIm2ColPooled(x, p)
	defer field.PutScratchVec(cols)
	ocpg := p.OutC / p.Groups
	out := make(field.Vec, p.OutC*rows)
	for g := 0; g < p.Groups; g++ {
		for oc := 0; oc < ocpg; oc++ {
			dRow := delta[(g*ocpg+oc)*npix : (g*ocpg+oc+1)*npix]
			oRow := out[(g*ocpg+oc)*rows : (g*ocpg+oc+1)*rows]
			for r := 0; r < rows; r++ {
				cRow := cols[(g*rows+r)*npix : (g*rows+r+1)*npix]
				oRow[r] = field.Dot(dRow, cRow)
			}
		}
	}
	return out
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

// fieldIm2ColPooled is fieldIm2ColInto on a pooled scratch buffer; the
// caller must return cols with field.PutScratchVec.
func fieldIm2ColPooled(in field.Vec, p tensor.ConvParams) (cols field.Vec, rows, npix int) {
	cpg := p.InC / p.Groups
	rows = cpg * p.KH * p.KW
	npix = p.OutH() * p.OutW()
	cols = fieldIm2ColInto(field.GetScratchVec(p.Groups*rows*npix), in, p)
	return cols, rows, npix
}

// fieldIm2ColInto is im2col over F_p: pure data movement, zero padding,
// stride-1 rows as contiguous copies. The window math is single-sourced
// in tensor.Im2ColSlices, shared with the float conv path.
func fieldIm2ColInto(cols field.Vec, in field.Vec, p tensor.ConvParams) field.Vec {
	tensor.Im2ColSlices(cols, in, p)
	return cols
}
