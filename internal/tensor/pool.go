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

// MaxPool2DInto max-pools in into out (OutH·OutW per channel) and, when
// argmax is non-nil, records there the index (into the input plane) of
// each window's maximum, which the backward pass routes gradients through.
// MaxPool is one of the non-linear ops DarKnight keeps inside the TEE.
// Every element of out and argmax is overwritten.
//
//darknight:hotpath
func MaxPool2DInto(out []float64, argmax []int, in []float64, p PoolParams) {
	oh, ow := p.OutH(), p.OutW()
	out = out[:p.C*oh*ow]
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
				out[o] = best
				if argmax != nil {
					argmax[o] = bestIdx
				}
			}
		}
	}
}

// MaxPool2DBackward scatters gout through the stored argmax indices.
func MaxPool2DBackward(gout []float64, argmax []int, p PoolParams) []float64 {
	din := make([]float64, p.C*p.InH*p.InW)
	for i, idx := range argmax {
		din[idx] += gout[i]
	}
	return din
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

// AvgPool2DBackward spreads gout uniformly across each pooling window.
func AvgPool2DBackward(gout []float64, p PoolParams) []float64 {
	oh, ow := p.OutH(), p.OutW()
	din := make([]float64, p.C*p.InH*p.InW)
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
	return din
}
