// Package spec holds the reference kernels: the seed implementations of
// masking's encode and decodes, the float matmul, and the F_p forward and
// weight-gradient kernels of the dense and convolutional layers, kept as
// plain loops with one reduction per term and a fresh output per call.
// The production kernels must match them bit for bit, and BenchmarkKernels
// measures the production kernels against them. Its subpackage stack
// composes the field kernels into the reference of the whole runtime.
//
// Only _test.go files import spec, so no binary links it. It imports
// only field and the standard library: the masking, tensor and nn tests
// that use it are same-package tests, so any other import would be a
// cycle. Callers pass a code as its exported parts (Code) and conv
// geometry as Conv, which converts from tensor.ConvParams.
package spec

import (
	"math/rand"

	"darknight/internal/field"
)

// Code is the part of a masking code the reference kernels read:
// masking.Code's exported K, M, S, A and Gamma.
type Code struct {
	K, M, S int
	// A is the S×(S+E) encoding matrix; column j mixes coded input j.
	A *field.Mat
	// Gamma holds the backward decode scalars γ_j.
	Gamma field.Vec
}

// Encode returns the S+E coded inputs x̄_j = Σ_m A[m,j]·x_m of the K
// inputs and M noise rows, drawn from rng in order: one field.AXPY per
// coefficient. The inputs must be K vectors of one length.
func Encode(c Code, inputs []field.Vec, rng *rand.Rand) []field.Vec {
	n := len(inputs[0])
	full := make([]field.Vec, c.S)
	copy(full, inputs)
	for m := 0; m < c.M; m++ {
		full[c.K+m] = field.RandVec(rng, n)
	}
	coded := make([]field.Vec, c.A.Cols)
	for j := range coded {
		out := field.NewVec(n)
		for m := 0; m < c.S; m++ {
			if a := c.A.At(m, j); a != 0 {
				field.AXPY(out, a, full[m])
			}
		}
		coded[j] = out
	}
	return coded
}

// DecodeForward returns the K images f(x_i) = Σ_j inv[j,i]·ȳ_j decoded
// from the first S results, where inv inverts A's first S columns.
func DecodeForward(c Code, results []field.Vec) []field.Vec {
	inv := primaryInverse(c)
	n := len(results[0])
	out := make([]field.Vec, c.K)
	for i := 0; i < c.K; i++ {
		y := field.NewVec(n)
		for j := 0; j < c.S; j++ {
			if a := inv[j][i]; a != 0 {
				field.AXPY(y, a, results[j])
			}
		}
		out[i] = y
	}
	return out
}

// DecodeBackward folds the first S gradient equations into the batch
// gradient Σ_j γ_j·eqs_j.
func DecodeBackward(c Code, eqs []field.Vec) field.Vec {
	out := field.NewVec(len(eqs[0]))
	for j := 0; j < c.S; j++ {
		field.AXPY(out, c.Gamma[j], eqs[j])
	}
	return out
}

// primaryInverse inverts the S×S submatrix of A's first S columns by
// Gauss–Jordan elimination over F_p. The inverse is unique, so it equals
// the one the production decode caches.
func primaryInverse(c Code) [][]field.Elem {
	s := c.S
	aug := make([][]field.Elem, s) // [sub | I]
	for r := range aug {
		aug[r] = make([]field.Elem, 2*s)
		for col := 0; col < s; col++ {
			aug[r][col] = c.A.At(r, col)
		}
		aug[r][s+r] = 1
	}
	for col := 0; col < s; col++ {
		piv := col
		for piv < s && aug[piv][col] == 0 {
			piv++
		}
		if piv == s {
			panic("spec: A's first S columns are singular")
		}
		aug[col], aug[piv] = aug[piv], aug[col]
		inv := field.MustInv(aug[col][col])
		for j := range aug[col] {
			aug[col][j] = field.Mul(aug[col][j], inv)
		}
		for r := 0; r < s; r++ {
			if f := aug[r][col]; r != col && f != 0 {
				for j := range aug[r] {
					aug[r][j] = field.Sub(aug[r][j], field.Mul(f, aug[col][j]))
				}
			}
		}
	}
	for r := range aug {
		aug[r] = aug[r][s:]
	}
	return aug
}

// MatMul returns the m×n product of the row-major m×k matrix a and k×n
// matrix b: the naive single-threaded i-k-j loop.
func MatMul(a []float64, m, k int, b []float64, n int) []float64 {
	out := make([]float64, m*n)
	for i := 0; i < m; i++ {
		arow := a[i*k : (i+1)*k]
		orow := out[i*n : (i+1)*n]
		for kk := 0; kk < k; kk++ {
			av := arow[kk]
			if av == 0 {
				continue
			}
			brow := b[kk*n : (kk+1)*n]
			for j := 0; j < n; j++ {
				orow[j] += av * brow[j]
			}
		}
	}
	return out
}

// DenseForward is a dense layer's F_p matrix-vector product: output i is
// Σ_j wq[i·len(x)+j]·x_j for the out×len(x) row-major weights wq.
func DenseForward(wq, x field.Vec, out int) field.Vec {
	in := len(x)
	y := make(field.Vec, out)
	for i := range y {
		for j, xv := range x {
			y[i] = field.MulAdd(y[i], wq[i*in+j], xv)
		}
	}
	return y
}

// DenseGrad is a dense layer's F_p weight gradient: the flat outer product
// δ ⊗ x, laid out as the weights are.
func DenseGrad(delta, x field.Vec) field.Vec {
	out := make(field.Vec, len(delta)*len(x))
	for i, dv := range delta {
		for j, xv := range x {
			out[i*len(x)+j] = field.Mul(dv, xv)
		}
	}
	return out
}

// Conv is a 2-D convolution's geometry, field for field
// tensor.ConvParams, so spec.Conv(p) converts one.
type Conv struct {
	InC, OutC   int
	KH, KW      int
	Stride, Pad int
	InH, InW    int
	Groups      int
}

func (p Conv) outH() int { return (p.InH+2*p.Pad-p.KH)/p.Stride + 1 }
func (p Conv) outW() int { return (p.InW+2*p.Pad-p.KW)/p.Stride + 1 }

// ConvForward is the F_p convolution of the quantized weights wq over
// one image x: an element-at-a-time im2col, then one field.MulAdd (a
// multiply and a reduction) per element per term.
func ConvForward(p Conv, wq, x field.Vec) field.Vec {
	cpg := p.InC / p.Groups
	rows := cpg * p.KH * p.KW
	npix := p.outH() * p.outW()
	cols := im2col(x, p)
	ocpg := p.OutC / p.Groups
	out := make(field.Vec, p.OutC*npix)
	for g := 0; g < p.Groups; g++ {
		for oc := 0; oc < ocpg; oc++ {
			wRow := wq[(g*ocpg+oc)*rows : (g*ocpg+oc+1)*rows]
			oRow := out[(g*ocpg+oc)*npix : (g*ocpg+oc+1)*npix]
			for r := 0; r < rows; r++ {
				wv := wRow[r]
				if wv == 0 {
					continue
				}
				cRow := cols[(g*rows+r)*npix : (g*rows+r+1)*npix]
				for j := 0; j < npix; j++ {
					oRow[j] = field.MulAdd(oRow[j], wv, cRow[j])
				}
			}
		}
	}
	return out
}

// ConvGrad is the F_p weight gradient of the convolution for the output
// gradient delta ([OutC, OutH, OutW]) over one image x: for every weight,
// Σ over output pixels of delta times the input element that weight met,
// laid out as the weights are ([OutC, InC/Groups, KH, KW]).
func ConvGrad(p Conv, delta, x field.Vec) field.Vec {
	cpg := p.InC / p.Groups
	rows := cpg * p.KH * p.KW
	npix := p.outH() * p.outW()
	cols := im2col(x, p)
	ocpg := p.OutC / p.Groups
	out := make(field.Vec, p.OutC*rows)
	for g := 0; g < p.Groups; g++ {
		for oc := 0; oc < ocpg; oc++ {
			dRow := delta[(g*ocpg+oc)*npix : (g*ocpg+oc+1)*npix]
			for r := 0; r < rows; r++ {
				cRow := cols[(g*rows+r)*npix : (g*rows+r+1)*npix]
				var acc field.Elem
				for j := 0; j < npix; j++ {
					acc = field.MulAdd(acc, dRow[j], cRow[j])
				}
				out[(g*ocpg+oc)*rows+r] = acc
			}
		}
	}
	return out
}

// im2col unrolls the patches of one [C, H, W] image into a fresh
// [Groups, rows, pixels] matrix, one element at a time.
func im2col(in field.Vec, p Conv) field.Vec {
	cpg := p.InC / p.Groups
	rows := cpg * p.KH * p.KW
	oh, ow := p.outH(), p.outW()
	npix := oh * ow
	cols := make(field.Vec, p.Groups*rows*npix)
	for g := 0; g < p.Groups; g++ {
		for ci := 0; ci < cpg; ci++ {
			inC := g*cpg + ci
			for ky := 0; ky < p.KH; ky++ {
				for kx := 0; kx < p.KW; kx++ {
					row := (ci*p.KH+ky)*p.KW + kx
					base := (g*rows + row) * npix
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
							cols[base+oy*ow+ox] = in[(inC*p.InH+iy)*p.InW+ix]
						}
					}
				}
			}
		}
	}
	return cols
}
