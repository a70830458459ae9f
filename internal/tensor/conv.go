package tensor

import "fmt"

// ConvParams describes a 2-D convolution: square-ish kernels with
// independent stride and zero padding, NCHW layout.
type ConvParams struct {
	InC, OutC   int
	KH, KW      int
	Stride, Pad int
	InH, InW    int
	Groups      int // 1 for dense conv; InC for depthwise (MobileNet)
}

// OutH returns the output height.
func (p ConvParams) OutH() int { return (p.InH+2*p.Pad-p.KH)/p.Stride + 1 }

// OutW returns the output width.
func (p ConvParams) OutW() int { return (p.InW+2*p.Pad-p.KW)/p.Stride + 1 }

// Validate panics if the configuration is internally inconsistent.
func (p ConvParams) Validate() {
	if p.Groups == 0 {
		panic("tensor: ConvParams.Groups must be >= 1")
	}
	if p.InC%p.Groups != 0 || p.OutC%p.Groups != 0 {
		panic(fmt.Sprintf("tensor: channels %d/%d not divisible by groups %d",
			p.InC, p.OutC, p.Groups))
	}
	if p.OutH() <= 0 || p.OutW() <= 0 {
		panic(fmt.Sprintf("tensor: conv output collapsed: %+v", p))
	}
}

// Im2ColInto unrolls input patches into a matrix with one column per
// output pixel and one row per (in-channel, ky, kx) triple, so that
// convolution becomes the bilinear matmul DarKnight's masking relies on
// ("the most computationally intensive operator (such as convolutions) is
// bilinear"). in is a single image [C, H, W] flattened; dst is the
// caller-owned [Groups, rows, cols] destination (typically a pooled
// scratch buffer reused per image), which is overwritten, padding
// included. It returns dst.
func Im2ColInto(dst *Tensor, in []float64, p ConvParams) *Tensor {
	cpg := p.InC / p.Groups
	rows := cpg * p.KH * p.KW
	cols := p.OutH() * p.OutW()
	if dst.Size() != p.Groups*rows*cols {
		panic(fmt.Sprintf("tensor: im2col destination %v, want %d elements",
			dst.Shape, p.Groups*rows*cols))
	}
	Im2ColSlices(dst.Data, in, p)
	return dst
}

// Im2ColSlices is the element-type-generic im2col: it unrolls patches of
// in into cols (fully overwritten, padding zeroed) for any scalar type.
// Only the float kernels here build the patch matrix; at stride 1 each
// output row collapses to one contiguous copy, with ox clamped so
// ix = ox·Stride + kx − Pad stays in [0, InW). The F_p device kernels
// never build it: internal/nn reads the patches through offset tables
// (field.GatherMatMul).
func Im2ColSlices[T any](cols []T, in []T, p ConvParams) {
	var zero T
	cpg := p.InC / p.Groups // channels per group
	rows := cpg * p.KH * p.KW
	oh, ow := p.OutH(), p.OutW()
	npix := oh * ow
	for i := range cols {
		cols[i] = zero
	}
	for g := 0; g < p.Groups; g++ {
		for c := 0; c < cpg; c++ {
			inC := g*cpg + c
			for ky := 0; ky < p.KH; ky++ {
				for kx := 0; kx < p.KW; kx++ {
					row := (c*p.KH+ky)*p.KW + kx
					base := (g*rows + row) * npix
					for oy := 0; oy < oh; oy++ {
						iy := oy*p.Stride + ky - p.Pad
						if iy < 0 || iy >= p.InH {
							continue // stays zero (padding)
						}
						if p.Stride == 1 {
							// ix = ox + kx - Pad must lie in [0, InW):
							// the whole row is one contiguous copy.
							oxLo, oxHi := 0, ow
							if d := p.Pad - kx; d > oxLo {
								oxLo = d
							}
							if d := p.InW + p.Pad - kx; d < oxHi {
								oxHi = d
							}
							if oxHi > oxLo {
								src := (inC*p.InH+iy)*p.InW + kx - p.Pad
								copy(cols[base+oy*ow+oxLo:base+oy*ow+oxHi], in[src+oxLo:src+oxHi])
							}
							continue
						}
						for ox := 0; ox < ow; ox++ {
							ix := ox*p.Stride + kx - p.Pad
							if ix < 0 || ix >= p.InW {
								continue
							}
							cols[base+oy*ow+ox] = in[(inC*p.InH+iy)*p.InW+ix]
						}
					}
				}
			}
		}
	}
}

// Col2Im is the adjoint of Im2ColInto: it scatters a patch matrix back into an
// image, accumulating overlaps. It is the core of the convolution input
// gradient.
func Col2Im(cols *Tensor, p ConvParams) []float64 {
	return Col2ImInto(make([]float64, p.InC*p.InH*p.InW), cols, p)
}

// Col2ImInto scatters a patch matrix into the caller-owned image buffer,
// which is zeroed first, and returns it.
func Col2ImInto(out []float64, cols *Tensor, p ConvParams) []float64 {
	cpg := p.InC / p.Groups
	rows := cpg * p.KH * p.KW
	oh, ow := p.OutH(), p.OutW()
	ncols := oh * ow
	if len(out) != p.InC*p.InH*p.InW {
		panic(fmt.Sprintf("tensor: col2im destination %d, want %d elements",
			len(out), p.InC*p.InH*p.InW))
	}
	for i := range out {
		out[i] = 0
	}
	for g := 0; g < p.Groups; g++ {
		for c := 0; c < cpg; c++ {
			inC := g*cpg + c
			for ky := 0; ky < p.KH; ky++ {
				for kx := 0; kx < p.KW; kx++ {
					row := (c*p.KH+ky)*p.KW + kx
					base := (g*rows + row) * ncols
					for oy := 0; oy < oh; oy++ {
						iy := oy*p.Stride + ky - p.Pad
						if iy < 0 || iy >= p.InH {
							continue
						}
						for ox := 0; ox < ow; ox++ {
							ix := ox*p.Stride + kx - p.Pad
							if ix < 0 || ix >= p.InW {
								continue
							}
							out[(inC*p.InH+iy)*p.InW+ix] += cols.Data[base+oy*ow+ox]
						}
					}
				}
			}
		}
	}
	return out
}

// Conv2D convolves a single image in [InC, InH, InW] with weights
// w [OutC, InC/Groups, KH, KW] and per-channel bias b (nil for none),
// returning [OutC, OutH, OutW].
func Conv2D(in []float64, w *Tensor, b []float64, p ConvParams) *Tensor {
	p.Validate()
	oh, ow := p.OutH(), p.OutW()
	ocpg := p.OutC / p.Groups
	cpg := p.InC / p.Groups
	rows := cpg * p.KH * p.KW
	npix := oh * ow
	colsBuf := GetScratch(p.Groups * rows * npix)
	defer PutScratch(colsBuf)
	cols := Im2ColInto(FromSlice(colsBuf, p.Groups, rows, npix), in, p)
	out := New(p.OutC, oh, ow)
	for g := 0; g < p.Groups; g++ {
		wg := FromSlice(w.Data[g*ocpg*rows:(g+1)*ocpg*rows], ocpg, rows)
		cg := FromSlice(cols.Data[g*rows*npix:(g+1)*rows*npix], rows, npix)
		// The output block is written in place — no per-group result copy.
		MatMulInto(FromSlice(out.Data[g*ocpg*npix:(g+1)*ocpg*npix], ocpg, npix), wg, cg)
	}
	if b != nil {
		for oc := 0; oc < p.OutC; oc++ {
			bb := b[oc]
			seg := out.Data[oc*npix : (oc+1)*npix]
			for i := range seg {
				seg[i] += bb
			}
		}
	}
	return out
}

// Conv2DGradInput computes only dL/dIn = Col2Im(Wᵀ·gout) into dst, a
// caller-owned buffer of InC·InH·InW elements, every one of which it
// overwrites. Unlike the full
// backward it does not need the forward input — the input gradient of a
// bilinear op is input-independent, which is what lets DarKnight offload δ
// propagation without any coding (paper §4.2, computation (2)).
//
// It builds no patch-gradient matrix. Each patch row (c, ky, kx) of Wᵀ·gout
// is summed once into a pooled row, in MatMulTransAInto's order and
// skipping zero weights as it does (four output channels to a pass where
// none of their weights is zero), and scattered through the stride into
// a zero-bordered plane that every window reaches without a bounds test;
// the plane's interior is the channel's gradient. Every element receives
// the same terms in Col2Im's order, so the result is bit-identical to the
// matrix formulation. It allocates nothing.
//
//darknight:hotpath
func Conv2DGradInput(dst []float64, w *Tensor, gout *Tensor, p ConvParams) []float64 {
	p.Validate()
	oh, ow := p.OutH(), p.OutW()
	npix := oh * ow
	ocpg := p.OutC / p.Groups
	cpg := p.InC / p.Groups
	rows := cpg * p.KH * p.KW
	// A window overhangs the padded image when InH+2·Pad−KH is negative
	// but above −Stride (OutH truncates it to 0), and the padded image
	// extends past the last window when the stride does not divide it.
	ph := max((oh-1)*p.Stride+p.KH, p.Pad+p.InH)
	pw := max((ow-1)*p.Stride+p.KW, p.Pad+p.InW)
	buf := GetScratch(npix + ph*pw)
	defer PutScratch(buf)
	pooled, plane := buf[:npix], buf[npix:]
	out := dst[:p.InC*p.InH*p.InW]
	for g := 0; g < p.Groups; g++ {
		wg := w.Data[g*ocpg*rows : (g+1)*ocpg*rows]
		gg := gout.Data[g*ocpg*npix : (g+1)*ocpg*npix]
		for c := 0; c < cpg; c++ {
			clear(plane)
			for ky := 0; ky < p.KH; ky++ {
				for kx := 0; kx < p.KW; kx++ {
					row := (c*p.KH+ky)*p.KW + kx
					clear(pooled)
					oc := 0
					for ; oc+4 <= ocpg; oc += 4 {
						a0, a1, a2, a3 := wg[oc*rows+row], wg[(oc+1)*rows+row], wg[(oc+2)*rows+row], wg[(oc+3)*rows+row]
						if a0 != 0 && a1 != 0 && a2 != 0 && a3 != 0 {
							axpy4Float(pooled, a0, a1, a2, a3, gg[oc*npix:], gg[(oc+1)*npix:], gg[(oc+2)*npix:], gg[(oc+3)*npix:])
							continue
						}
						for o := oc; o < oc+4; o++ {
							if a := wg[o*rows+row]; a != 0 {
								axpyFloat(pooled, a, gg[o*npix:(o+1)*npix])
							}
						}
					}
					for ; oc < ocpg; oc++ {
						if a := wg[oc*rows+row]; a != 0 {
							axpyFloat(pooled, a, gg[oc*npix:(oc+1)*npix])
						}
					}
					for oy := 0; oy < oh; oy++ {
						dst := plane[(oy*p.Stride+ky)*pw+kx:]
						src := pooled[oy*ow : (oy+1)*ow]
						if p.Stride == 1 { // the row's targets are contiguous
							dst = dst[:len(src)]
							for ox, v := range src {
								dst[ox] += v
							}
							continue
						}
						for ox, v := range src {
							dst[ox*p.Stride] += v
						}
					}
				}
			}
			img := out[(g*cpg+c)*p.InH*p.InW : (g*cpg+c+1)*p.InH*p.InW]
			for iy := 0; iy < p.InH; iy++ {
				src := plane[(p.Pad+iy)*pw+p.Pad:]
				copy(img[iy*p.InW:(iy+1)*p.InW], src[:p.InW])
			}
		}
	}
	return out
}

// Conv2DBackward computes the gradients of a convolution given the upstream
// gradient gout [OutC, OutH, OutW]: returns (dIn, dW, dB).
func Conv2DBackward(in []float64, w *Tensor, gout *Tensor, p ConvParams) (dIn []float64, dW *Tensor, dB []float64) {
	p.Validate()
	oh, ow := p.OutH(), p.OutW()
	npix := oh * ow
	ocpg := p.OutC / p.Groups
	cpg := p.InC / p.Groups
	rows := cpg * p.KH * p.KW
	colsBuf := GetScratch(p.Groups * rows * npix)
	dColsBuf := GetScratch(p.Groups * rows * npix)
	defer PutScratch(colsBuf)
	defer PutScratch(dColsBuf)
	cols := Im2ColInto(FromSlice(colsBuf, p.Groups, rows, npix), in, p)

	dW = New(w.Shape...)
	dColsAll := FromSlice(dColsBuf, p.Groups, rows, npix)
	for g := 0; g < p.Groups; g++ {
		gg := FromSlice(gout.Data[g*ocpg*npix:(g+1)*ocpg*npix], ocpg, npix)
		cg := FromSlice(cols.Data[g*rows*npix:(g+1)*rows*npix], rows, npix)
		// dW_g = gout_g · cols_gᵀ  -> [ocpg, rows], written in place
		MatMulTransBInto(FromSlice(dW.Data[g*ocpg*rows:(g+1)*ocpg*rows], ocpg, rows), gg, cg)
		// dCols_g = W_gᵀ · gout_g -> [rows, npix], written in place
		wg := FromSlice(w.Data[g*ocpg*rows:(g+1)*ocpg*rows], ocpg, rows)
		MatMulTransAInto(FromSlice(dColsAll.Data[g*rows*npix:(g+1)*rows*npix], rows, npix), wg, gg)
	}
	dIn = Col2Im(dColsAll, p)

	dB = make([]float64, p.OutC)
	for oc := 0; oc < p.OutC; oc++ {
		var s float64
		for _, v := range gout.Data[oc*npix : (oc+1)*npix] {
			s += v
		}
		dB[oc] = s
	}
	return dIn, dW, dB
}
