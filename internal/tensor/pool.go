package tensor

import "math"

// PoolParams describes a 2-D max or average pooling window over a single
// [C, H, W] image.
type PoolParams struct {
	C, InH, InW int
	K, Stride   int
}

// OutH returns the pooled height.
func (p PoolParams) OutH() int { return (p.InH-p.K)/p.Stride + 1 }

// OutW returns the pooled width.
func (p PoolParams) OutW() int { return (p.InW-p.K)/p.Stride + 1 }

// MaxPool2DInto max-pools in into out (OutH·OutW per channel), every
// element of which it overwrites. MaxPool is one of the non-linear ops
// DarKnight keeps inside the TEE.
//
//darknight:hotpath
func MaxPool2DInto(out, in []float64, p PoolParams) {
	maxPool(out[:p.C*p.OutH()*p.OutW()], nil, nil, in, p)
}

// MaxPool2DBackwardInto writes into din (C·InH·InW elements, all
// overwritten) the gradient of max pooling in for the output gradient
// gout: each window's gradient goes to the element MaxPool2DInto picked as
// its maximum, found again in in by the same scan, and windows that pick
// one element add into it in output order.
//
//darknight:hotpath
func MaxPool2DBackwardInto(din, gout, in []float64, p PoolParams) {
	din = din[:p.C*p.InH*p.InW]
	clear(din)
	maxPool(nil, din, gout, in, p)
}

// maxPool scans every window of in for its maximum — the first element
// greater than all before it, in row-major window order — and writes it to
// out, or, when din is non-nil, adds the window's gout into din at the
// maximum's index instead: one scan, so both passes agree on every tie.
//
//darknight:hotpath
func maxPool(out, din, gout, in []float64, p PoolParams) {
	oh, ow := p.OutH(), p.OutW()
	for c := 0; c < p.C; c++ {
		for oy := 0; oy < oh; oy++ {
			for ox := 0; ox < ow; ox++ {
				best := math.Inf(-1)
				bestIdx := -1
				for ky := 0; ky < p.K; ky++ {
					iy := oy*p.Stride + ky
					for kx := 0; kx < p.K; kx++ {
						ix := ox*p.Stride + kx
						idx := (c*p.InH+iy)*p.InW + ix
						if v := in[idx]; v > best {
							best = v
							bestIdx = idx
						}
					}
				}
				o := (c*oh+oy)*ow + ox
				if din != nil {
					din[bestIdx] += gout[o]
				} else {
					out[o] = best
				}
			}
		}
	}
}

// AvgPool2DInto average-pools in into out (used by ResNet/MobileNet
// global pooling when K equals the spatial extent). Every element of out is
// overwritten.
//
//darknight:hotpath
func AvgPool2DInto(out, in []float64, p PoolParams) {
	oh, ow := p.OutH(), p.OutW()
	norm := 1.0 / float64(p.K*p.K)
	for c := 0; c < p.C; c++ {
		for oy := 0; oy < oh; oy++ {
			for ox := 0; ox < ow; ox++ {
				var s float64
				for ky := 0; ky < p.K; ky++ {
					iy := oy*p.Stride + ky
					for kx := 0; kx < p.K; kx++ {
						ix := ox*p.Stride + kx
						s += in[(c*p.InH+iy)*p.InW+ix]
					}
				}
				out[(c*oh+oy)*ow+ox] = s * norm
			}
		}
	}
}

// AvgPool2DBackwardInto writes into din (C·InH·InW elements, all
// overwritten) the gradient of average pooling for the output gradient
// gout: each window's gradient spread uniformly across it.
//
//darknight:hotpath
func AvgPool2DBackwardInto(din, gout []float64, p PoolParams) {
	oh, ow := p.OutH(), p.OutW()
	din = din[:p.C*p.InH*p.InW]
	clear(din)
	norm := 1.0 / float64(p.K*p.K)
	for c := 0; c < p.C; c++ {
		for oy := 0; oy < oh; oy++ {
			for ox := 0; ox < ow; ox++ {
				g := gout[(c*oh+oy)*ow+ox] * norm
				for ky := 0; ky < p.K; ky++ {
					iy := oy*p.Stride + ky
					for kx := 0; kx < p.K; kx++ {
						ix := ox*p.Stride + kx
						din[(c*p.InH+iy)*p.InW+ix] += g
					}
				}
			}
		}
	}
}
