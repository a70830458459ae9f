package tensor

import (
	"math"
	"math/rand"
	"testing"

	"darknight/internal/par"
	"darknight/internal/spec"
)

// matMulRef is the reference i-k-j product (spec.MatMul) on tensors.
func matMulRef(a, b *Tensor) *Tensor {
	m, k, n := a.Shape[0], a.Shape[1], b.Shape[1]
	return FromSlice(spec.MatMul(a.Data, m, k, b.Data, n), m, n)
}

// naiveTransB / naiveTransA are the seed loops, kept as oracles for the
// blocked variants (matMulRef covers the plain product).

func naiveTransB(a, b *Tensor) *Tensor {
	m, k, n := a.Shape[0], a.Shape[1], b.Shape[0]
	out := New(m, n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var s float64
			for kk := 0; kk < k; kk++ {
				s += a.Data[i*k+kk] * b.Data[j*k+kk]
			}
			out.Data[i*n+j] = s
		}
	}
	return out
}

func naiveTransA(a, b *Tensor) *Tensor {
	k, m, n := a.Shape[0], a.Shape[1], b.Shape[1]
	out := New(m, n)
	for kk := 0; kk < k; kk++ {
		for i := 0; i < m; i++ {
			for j := 0; j < n; j++ {
				out.Data[i*n+j] += a.Data[kk*m+i] * b.Data[kk*n+j]
			}
		}
	}
	return out
}

// TestBlockedKernelsMatchNaive pins the blocked, goroutine-parallel kernels
// to the naive references across odd sizes (non-multiples of every block
// constant) with parallelism forced on, then repeats serially.
func TestBlockedKernelsMatchNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	sizes := []struct{ m, k, n int }{
		{1, 1, 1}, {2, 3, 4}, {5, blockK + 7, 3}, {17, 129, 33},
		{64, 2*blockK + 5, transBBlockJ + 9}, {3, 7, 2*transBBlockJ + 1},
	}
	// Restore the fan-out override even if a Fatalf fires mid-loop.
	defer par.SetMaxWorkers(par.SetMaxWorkers(0))
	for _, workers := range []int{1, 4} {
		par.SetMaxWorkers(workers)
		for _, sz := range sizes {
			a := New(sz.m, sz.k)
			b := New(sz.k, sz.n)
			a.RandNormal(rng, 1)
			b.RandNormal(rng, 1)
			a.Data[0] = 0 // exercise the zero-skip branch

			if got, want := MatMulInto(New(sz.m, sz.n), a, b), matMulRef(a, b); !got.EqualApprox(want, 1e-9) {
				t.Fatalf("MatMulInto(%v) diverges from spec.MatMul (workers=%d)", sz, workers)
			}
			bt := transpose2D(b)
			if got, want := MatMulTransBInto(New(sz.m, sz.n), a, bt), naiveTransB(a, bt); !got.EqualApprox(want, 1e-9) {
				t.Fatalf("MatMulTransBInto(%v) diverges from naive (workers=%d)", sz, workers)
			}
			at := transpose2D(a)
			if got, want := MatMulTransAInto(New(sz.m, sz.n), at, b), naiveTransA(at, b); !got.EqualApprox(want, 1e-9) {
				t.Fatalf("MatMulTransAInto(%v) diverges from naive (workers=%d)", sz, workers)
			}

			// Into variants overwrite dirty destinations completely.
			dirty := New(sz.m, sz.n)
			dirty.Fill(123)
			if !MatMulInto(dirty, a, b).EqualApprox(matMulRef(a, b), 1e-9) {
				t.Fatalf("MatMulInto leaves stale data (%v, workers=%d)", sz, workers)
			}

			// Mat-vec paths against one-column matmul.
			x := make([]float64, sz.k)
			for i := range x {
				x[i] = rng.NormFloat64()
			}
			want := matMulRef(a, FromSlice(x, sz.k, 1))
			got := MatVecInto(make([]float64, sz.m), a, x)
			for i := range got {
				if diff := got[i] - want.Data[i]; diff > 1e-9 || diff < -1e-9 {
					t.Fatalf("MatVecInto(%v) diverges at %d (workers=%d)", sz, i, workers)
				}
			}
			g := make([]float64, sz.m)
			for i := range g {
				g[i] = rng.NormFloat64()
			}
			wantT := naiveTransA(a, FromSlice(g, sz.m, 1))
			gotT := MatVecTransInto(make([]float64, sz.k), a, g)
			for i := range gotT {
				if diff := gotT[i] - wantT.Data[i]; diff > 1e-9 || diff < -1e-9 {
					t.Fatalf("MatVecTransInto(%v) diverges at %d (workers=%d)", sz, i, workers)
				}
			}
		}
	}
}

// TestIm2ColIntoReuse verifies a dirty pooled buffer produces the same
// patch matrix as a fresh allocation (padding zeros included).
func TestIm2ColIntoReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(78))
	p := ConvParams{InC: 3, OutC: 4, KH: 3, KW: 3, Stride: 2, Pad: 1, InH: 9, InW: 7, Groups: 1}
	in := make([]float64, p.InC*p.InH*p.InW)
	for i := range in {
		in[i] = rng.NormFloat64()
	}
	want := Im2ColInto(New(p.Groups, p.InC/p.Groups*p.KH*p.KW, p.OutH()*p.OutW()), in, p)
	buf := GetScratch(want.Size())
	for i := range buf {
		buf[i] = 999 // dirty
	}
	got := Im2ColInto(FromSlice(buf, want.Shape...), in, p)
	if !got.EqualApprox(want, 0) {
		t.Fatal("Im2ColInto on a dirty buffer diverges from a fresh one")
	}
	// Col2ImInto round-trips the adjoint on a dirty destination.
	img := make([]float64, p.InC*p.InH*p.InW)
	for i := range img {
		img[i] = -5
	}
	wantImg := Col2Im(want, p)
	gotImg := Col2ImInto(img, got, p)
	for i := range wantImg {
		if wantImg[i] != gotImg[i] {
			t.Fatalf("Col2ImInto diverges at %d", i)
		}
	}
	PutScratch(buf)
}

// TestZeroWidthMatMul pins the empty-operand edge the seed kernels
// handled: products with a zero dimension return empty tensors, no panic.
func TestZeroWidthMatMul(t *testing.T) {
	a := FromSlice([]float64{1, 2}, 1, 2)
	if got := MatMulInto(New(1, 0), a, New(2, 0)); got.Size() != 0 || got.Shape[1] != 0 {
		t.Fatalf("1x2 · 2x0 = %v, want empty 1x0", got.Shape)
	}
	if got := MatMulTransAInto(New(3, 4), New(0, 3), New(0, 4)); got.Size() != 12 || got.MaxAbs() != 0 {
		t.Fatalf("0x3ᵀ · 0x4 = %v (max %v), want a 3x4 of zeros", got.Shape, got.MaxAbs())
	}
	if got := MatMulTransBInto(New(0, 3), New(0, 2), New(3, 2)); got.Size() != 0 {
		t.Fatalf("0x2 · 3x2ᵀ has size %d, want 0", got.Size())
	}
	if got := MatVecTransInto(make([]float64, 2), New(0, 2), nil); len(got) != 2 {
		t.Fatal("0-row MatVecTransInto should zero its destination")
	}
}

func TestEqualApproxComparesShapes(t *testing.T) {
	a := FromSlice(make([]float64, 12), 2, 6)
	b := FromSlice(make([]float64, 12), 3, 4)
	if a.EqualApprox(b, 1) {
		t.Fatal("a [2,6] tensor must not equal a [3,4] tensor of identical data")
	}
	if !a.EqualApprox(a.Clone(), 0) {
		t.Fatal("identical tensors must compare equal")
	}
	c := FromSlice(make([]float64, 12), 12)
	if a.EqualApprox(c, 1) || c.EqualApprox(a, 1) {
		t.Fatal("rank-2 and rank-1 tensors must not compare equal")
	}
}

func TestScratchPoolRoundTrip(t *testing.T) {
	s := GetScratch(100)
	if len(s) != 100 {
		t.Fatalf("GetScratch(100) has length %d", len(s))
	}
	PutScratch(s)
	if GetScratch(0) != nil {
		t.Fatal("GetScratch(0) should be nil")
	}
}

// conv2DGradInputCol2Im is the matrix formulation of the convolution input
// gradient, kept as Conv2DGradInput's reference: the patch-gradient matrix
// Wᵀ·gout of each group, scattered back by Col2Im.
func conv2DGradInputCol2Im(w, gout *Tensor, p ConvParams) []float64 {
	npix := p.OutH() * p.OutW()
	ocpg := p.OutC / p.Groups
	rows := p.InC / p.Groups * p.KH * p.KW
	dCols := New(p.Groups, rows, npix)
	for g := 0; g < p.Groups; g++ {
		gg := FromSlice(gout.Data[g*ocpg*npix:(g+1)*ocpg*npix], ocpg, npix)
		wg := FromSlice(w.Data[g*ocpg*rows:(g+1)*ocpg*rows], ocpg, rows)
		MatMulTransAInto(FromSlice(dCols.Data[g*rows*npix:(g+1)*rows*npix], rows, npix), wg, gg)
	}
	return Col2Im(dCols, p)
}

// TestConv2DGradInputMatchesCol2Im pins the matrix-free input gradient
// bit-for-bit to the matrix formulation over random geometries — strides,
// padding, groups, kernels wider than the padded image (FuzzConvField's
// overhang seed 12873ba3a43e0310 among them), output channels in and
// beyond blocks of four, and zero weights, which both skip — and pins the
// warm call, into a dirty caller-owned destination, at zero allocations.
func TestConv2DGradInputMatchesCol2Im(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	vgg := []ConvParams{
		{InC: 4, OutC: 4, KH: 3, KW: 3, Stride: 1, Pad: 1, InH: 8, InW: 8, Groups: 1},
		{InC: 4, OutC: 8, KH: 3, KW: 3, Stride: 1, Pad: 1, InH: 4, InW: 4, Groups: 1},
		{InC: 8, OutC: 8, KH: 3, KW: 3, Stride: 1, Pad: 1, InH: 4, InW: 4, Groups: 1},
	}
	geoms := append([]ConvParams{
		{InC: 4, OutC: 6, KH: 3, KW: 3, Stride: 2, Pad: 0, InH: 8, InW: 2, Groups: 1}, // the overhang seed
		{InC: 3, OutC: 3, KH: 1, KW: 3, Stride: 2, Pad: 0, InH: 1, InW: 2, Groups: 3},
	}, vgg...)
	for len(geoms) < 400 {
		g := 1 + rng.Intn(3)
		p := ConvParams{InC: g * (1 + rng.Intn(3)), OutC: g * (1 + rng.Intn(9)),
			KH: 1 + rng.Intn(3), KW: 1 + rng.Intn(3), Stride: 1 + rng.Intn(2), Pad: rng.Intn(2),
			InH: 1 + rng.Intn(7), InW: 1 + rng.Intn(7), Groups: g}
		if p.OutH() > 0 && p.OutW() > 0 {
			geoms = append(geoms, p)
		}
	}
	for _, p := range geoms {
		w := New(p.OutC, p.InC/p.Groups, p.KH, p.KW)
		w.RandNormal(rng, 1)
		for i := range w.Data {
			if rng.Intn(4) == 0 {
				w.Data[i] = 0
			}
		}
		gout := New(p.OutC, p.OutH(), p.OutW())
		gout.RandNormal(rng, 1)
		want := conv2DGradInputCol2Im(w, gout, p)
		got := make([]float64, len(want))
		for i := range got {
			got[i] = math.NaN()
		}
		Conv2DGradInput(got, w, gout, p)
		if len(got) != len(want) {
			t.Fatalf("%+v: %d elements, want %d", p, len(got), len(want))
		}
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("%+v: dIn[%d] = %v, matrix formulation %v", p, i, got[i], want[i])
			}
		}
	}
	if raceEnabled {
		return // the race detector bypasses sync.Pool, so allocation counts are meaningless
	}
	for _, p := range vgg {
		w, gout := New(p.OutC, p.InC/p.Groups, p.KH, p.KW), New(p.OutC, p.OutH(), p.OutW())
		w.RandNormal(rng, 1)
		gout.RandNormal(rng, 1)
		dst := make([]float64, p.InC*p.InH*p.InW)
		if n := testing.AllocsPerRun(50, func() { Conv2DGradInput(dst, w, gout, p) }); n != 0 {
			t.Fatalf("Conv2DGradInput(%+v): %v allocs, want 0", p, n)
		}
	}
}
