// Package tensor provides the dense float64 tensor type and the linear
// kernels (matmul, im2col convolution, pooling) that internal/nn builds its
// layers on. It is the from-scratch replacement for the Keras/TF + Intel
// DNNL stack the paper runs inside and outside the enclave.
package tensor

import (
	"fmt"
	"math"
	"math/rand"

	"darknight/internal/par"
)

// Tensor is a dense row-major float64 tensor with an arbitrary shape.
// Feature maps use NCHW order: [batch, channels, height, width].
type Tensor struct {
	Shape []int
	Data  []float64
}

// New allocates a zero tensor with the given shape.
func New(shape ...int) *Tensor {
	n := 1
	for _, d := range shape {
		if d < 0 {
			panic(fmt.Sprintf("tensor: negative dimension in %v", shape))
		}
		n *= d
	}
	return &Tensor{Shape: append([]int(nil), shape...), Data: make([]float64, n)}
}

// FromSlice wraps data (not copied) in a tensor of the given shape.
func FromSlice(data []float64, shape ...int) *Tensor {
	t := &Tensor{Shape: append([]int(nil), shape...), Data: data}
	if t.Size() != len(data) {
		panic(fmt.Sprintf("tensor: shape %v needs %d elements, have %d",
			shape, t.Size(), len(data)))
	}
	return t
}

// Size returns the total element count.
func (t *Tensor) Size() int {
	n := 1
	for _, d := range t.Shape {
		n *= d
	}
	return n
}

// Clone returns a deep copy.
func (t *Tensor) Clone() *Tensor {
	c := New(t.Shape...)
	copy(c.Data, t.Data)
	return c
}

// Zero resets all elements in place.
func (t *Tensor) Zero() {
	for i := range t.Data {
		t.Data[i] = 0
	}
}

// Fill sets all elements to v.
func (t *Tensor) Fill(v float64) {
	for i := range t.Data {
		t.Data[i] = v
	}
}

// RandUniform fills t with uniform values in [-a, a).
func (t *Tensor) RandUniform(rng *rand.Rand, a float64) {
	for i := range t.Data {
		t.Data[i] = (rng.Float64()*2 - 1) * a
	}
}

// RandNormal fills t with N(0, std²) values.
func (t *Tensor) RandNormal(rng *rand.Rand, std float64) {
	for i := range t.Data {
		t.Data[i] = rng.NormFloat64() * std
	}
}

// Add accumulates o into t elementwise.
func (t *Tensor) Add(o *Tensor) {
	mustSameSize(t, o)
	for i := range t.Data {
		t.Data[i] += o.Data[i]
	}
}

// Scale multiplies every element by s.
func (t *Tensor) Scale(s float64) {
	for i := range t.Data {
		t.Data[i] *= s
	}
}

// AXPY performs t += s·o.
func (t *Tensor) AXPY(s float64, o *Tensor) {
	mustSameSize(t, o)
	for i := range t.Data {
		t.Data[i] += s * o.Data[i]
	}
}

// MaxAbs returns the maximum absolute element value (0 for empty tensors).
func (t *Tensor) MaxAbs() float64 {
	m := 0.0
	for _, v := range t.Data {
		if a := math.Abs(v); a > m {
			m = a
		}
	}
	return m
}

// EqualApprox reports whether t and o have the same shape and agree
// elementwise within tol. Shapes are compared dimension by dimension, not
// by total size — a [2,6] tensor never equals a [3,4] one, even with
// identical backing data.
//
//lint:ignore testonly test fixture for the tensor and nn tests
func (t *Tensor) EqualApprox(o *Tensor, tol float64) bool {
	if len(t.Shape) != len(o.Shape) {
		return false
	}
	for i := range t.Shape {
		if t.Shape[i] != o.Shape[i] {
			return false
		}
	}
	for i := range t.Data {
		if math.Abs(t.Data[i]-o.Data[i]) > tol {
			return false
		}
	}
	return true
}

func mustSameSize(a, b *Tensor) {
	if a.Size() != b.Size() {
		panic(fmt.Sprintf("tensor: size mismatch %v vs %v", a.Shape, b.Shape))
	}
}

// The matmul kernels below are cache-blocked and goroutine-parallel: row
// ranges fan out across cores (internal/par), and the shared (depth) dimension
// is processed in panels of blockK rows of B so each panel stays cache-hot
// across the rows of the output block. Every kernel has an ...Into variant
// writing a caller-owned destination, which is what lets the conv path reuse
// one pooled patch matrix per image instead of allocating per call.

// blockK is the depth-panel height: blockK rows of B (or A for the
// transposed-A product) are streamed repeatedly while they are cache-hot.
const blockK = 256

// transBBlockJ is the B-row tile of the A·Bᵀ product: that many rows of B
// are reused across every output row of a goroutine's range.
const transBBlockJ = 64

// parGrainFlops is roughly how many multiply-adds a chunk must contain to be
// worth a goroutine.
const parGrainFlops = 1 << 16

// rowGrain returns the parallel grain in output rows for a kernel doing
// perRow multiply-adds per row.
func rowGrain(perRow int) int {
	if perRow <= 0 {
		return parGrainFlops
	}
	g := parGrainFlops / perRow
	if g < 1 {
		g = 1
	}
	return g
}

// axpyFloat performs dst += s·v. The reslice both hoists the bounds check
// and keeps zero-width operands (empty v) valid.
func axpyFloat(dst []float64, s float64, v []float64) {
	dst = dst[:len(v)]
	for j, x := range v {
		dst[j] += s * x
	}
}

// axpy4Float performs four axpyFloat calls in one pass: per element,
// dst += a0·v0, then a1·v1, a2·v2 and a3·v3, each rounded in turn, so the
// result is bit-identical to the four calls in that order.
func axpy4Float(dst []float64, a0, a1, a2, a3 float64, v0, v1, v2, v3 []float64) {
	n := len(dst)
	v0, v1, v2, v3 = v0[:n], v1[:n], v2[:n], v3[:n]
	for j := range dst {
		acc := dst[j]
		acc += a0 * v0[j]
		acc += a1 * v1[j]
		acc += a2 * v2[j]
		acc += a3 * v3[j]
		dst[j] = acc
	}
}

// dotFloat returns <a, b> with 4-way unrolled accumulation.
func dotFloat(a, b []float64) float64 {
	var s0, s1, s2, s3 float64
	i := 0
	for ; i+4 <= len(a); i += 4 {
		s0 += a[i] * b[i]
		s1 += a[i+1] * b[i+1]
		s2 += a[i+2] * b[i+2]
		s3 += a[i+3] * b[i+3]
	}
	for ; i < len(a); i++ {
		s0 += a[i] * b[i]
	}
	return (s0 + s1) + (s2 + s3)
}

func checkMatMulDst(dst *Tensor, m, n int) {
	if len(dst.Shape) != 2 || dst.Shape[0] != m || dst.Shape[1] != n {
		panic(fmt.Sprintf("tensor: matmul destination %v, want [%d %d]", dst.Shape, m, n))
	}
}

// MatMulInto computes dst = A·B for 2-D tensors (m×k)·(k×n) into the
// caller-owned m×n destination, which is overwritten. It returns dst.
func MatMulInto(dst, a, b *Tensor) *Tensor {
	if len(a.Shape) != 2 || len(b.Shape) != 2 || a.Shape[1] != b.Shape[0] {
		panic(fmt.Sprintf("tensor: matmul shapes %v · %v", a.Shape, b.Shape))
	}
	m, k, n := a.Shape[0], a.Shape[1], b.Shape[1]
	checkMatMulDst(dst, m, n)
	par.For(m, rowGrain(k*n), func(lo, hi int) {
		out := dst.Data[lo*n : hi*n]
		for i := range out {
			out[i] = 0
		}
		for kk := 0; kk < k; kk += blockK {
			ke := kk + blockK
			if ke > k {
				ke = k
			}
			for i := lo; i < hi; i++ {
				arow := a.Data[i*k+kk : i*k+ke]
				orow := dst.Data[i*n : (i+1)*n]
				for k2, av := range arow {
					if av == 0 {
						continue
					}
					axpyFloat(orow, av, b.Data[(kk+k2)*n:(kk+k2+1)*n])
				}
			}
		}
	})
	return dst
}

// MatMulTransBInto computes dst = A·Bᵀ for (m×k)·(n×k) operands — the
// layout the dense backward pass prefers — into the caller-owned m×n
// destination, which is overwritten. It returns dst.
func MatMulTransBInto(dst, a, b *Tensor) *Tensor {
	if len(a.Shape) != 2 || len(b.Shape) != 2 || a.Shape[1] != b.Shape[1] {
		panic(fmt.Sprintf("tensor: matmulTransB shapes %v · %vᵀ", a.Shape, b.Shape))
	}
	m, k, n := a.Shape[0], a.Shape[1], b.Shape[0]
	checkMatMulDst(dst, m, n)
	par.For(m, rowGrain(k*n), func(lo, hi int) {
		for jj := 0; jj < n; jj += transBBlockJ {
			je := jj + transBBlockJ
			if je > n {
				je = n
			}
			for i := lo; i < hi; i++ {
				arow := a.Data[i*k : (i+1)*k]
				orow := dst.Data[i*n : (i+1)*n]
				for j := jj; j < je; j++ {
					orow[j] = dotFloat(arow, b.Data[j*k:(j+1)*k])
				}
			}
		}
	})
	return dst
}

// MatMulTransAInto computes dst = Aᵀ·B for (k×m)·(k×n) operands into the
// caller-owned m×n
// destination, which is overwritten. It returns dst.
func MatMulTransAInto(dst, a, b *Tensor) *Tensor {
	if len(a.Shape) != 2 || len(b.Shape) != 2 || a.Shape[0] != b.Shape[0] {
		panic(fmt.Sprintf("tensor: matmulTransA shapes %vᵀ · %v", a.Shape, b.Shape))
	}
	k, m, n := a.Shape[0], a.Shape[1], b.Shape[1]
	checkMatMulDst(dst, m, n)
	par.For(m, rowGrain(k*n), func(lo, hi int) {
		out := dst.Data[lo*n : hi*n]
		for i := range out {
			out[i] = 0
		}
		for kk := 0; kk < k; kk++ {
			arow := a.Data[kk*m : (kk+1)*m]
			brow := b.Data[kk*n : (kk+1)*n]
			for i := lo; i < hi; i++ {
				av := arow[i]
				if av == 0 {
					continue
				}
				axpyFloat(dst.Data[i*n:(i+1)*n], av, brow)
			}
		}
	})
	return dst
}

// MatVecInto computes dst = W·x for W m×k and len(x) = k, overwriting the
// caller-owned length-m destination. The dense layers' float forward path.
func MatVecInto(dst []float64, w *Tensor, x []float64) []float64 {
	if len(w.Shape) != 2 || w.Shape[1] != len(x) || w.Shape[0] != len(dst) {
		panic(fmt.Sprintf("tensor: matvec shapes %v · %d -> %d", w.Shape, len(x), len(dst)))
	}
	k := w.Shape[1]
	par.For(len(dst), rowGrain(k), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			dst[i] = dotFloat(w.Data[i*k:(i+1)*k], x)
		}
	})
	return dst
}

// MatVecTransInto computes dst = Wᵀ·g for W m×k and len(g) = m, overwriting
// the caller-owned length-k destination. The dense layers' input-gradient
// path; parallelism splits the output columns so goroutines never share a
// destination element.
func MatVecTransInto(dst []float64, w *Tensor, g []float64) []float64 {
	if len(w.Shape) != 2 || w.Shape[0] != len(g) || w.Shape[1] != len(dst) {
		panic(fmt.Sprintf("tensor: matvecTrans shapes %vᵀ · %d -> %d", w.Shape, len(g), len(dst)))
	}
	k := w.Shape[1]
	if grain := rowGrain(len(g)); k > grain {
		par.For(k, grain, func(lo, hi int) { matVecTransCols(dst, w, g, lo, hi) })
	} else { // one chunk: no goroutine, and no closure to allocate
		matVecTransCols(dst, w, g, 0, k)
	}
	return dst
}

// matVecTransCols computes columns [lo, hi) of dst = Wᵀ·g.
//
//darknight:hotpath
func matVecTransCols(dst []float64, w *Tensor, g []float64, lo, hi int) {
	k := w.Shape[1]
	out := dst[lo:hi]
	for i := range out {
		out[i] = 0
	}
	for i, gv := range g {
		if gv == 0 {
			continue
		}
		axpyFloat(out, gv, w.Data[i*k+lo:i*k+hi])
	}
}
