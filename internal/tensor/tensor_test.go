package tensor

import (
	"math"
	"math/rand"
	"testing"
)

func TestNewAndSize(t *testing.T) {
	a := New(2, 3, 4)
	if a.Size() != 24 || len(a.Data) != 24 {
		t.Fatalf("size = %d", a.Size())
	}
	s := New() // scalar
	if s.Size() != 1 {
		t.Fatalf("scalar size = %d", s.Size())
	}
}

func TestMatMulSmall(t *testing.T) {
	a := FromSlice([]float64{1, 2, 3, 4, 5, 6}, 2, 3)
	b := FromSlice([]float64{7, 8, 9, 10, 11, 12}, 3, 2)
	c := MatMulInto(New(2, 2), a, b)
	want := []float64{58, 64, 139, 154}
	for i := range want {
		if c.Data[i] != want[i] {
			t.Fatalf("c = %v, want %v", c.Data, want)
		}
	}
}

func TestMatMulTransVariants(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := New(4, 7)
	b := New(7, 5)
	a.RandNormal(rng, 1)
	b.RandNormal(rng, 1)
	want := MatMulInto(New(4, 5), a, b)

	bt := transpose2D(b)
	got := MatMulTransBInto(New(4, 5), a, bt)
	if !got.EqualApprox(want, 1e-12) {
		t.Fatal("MatMulTransB mismatch")
	}

	at := transpose2D(a)
	got2 := MatMulTransAInto(New(4, 5), at, b)
	if !got2.EqualApprox(want, 1e-12) {
		t.Fatal("MatMulTransA mismatch")
	}
}

func transpose2D(t *Tensor) *Tensor {
	r, c := t.Shape[0], t.Shape[1]
	out := New(c, r)
	for i := 0; i < r; i++ {
		for j := 0; j < c; j++ {
			out.Data[j*r+i] = t.Data[i*c+j]
		}
	}
	return out
}

// referenceConv is a direct nested-loop convolution used as the oracle for
// the im2col implementation.
func referenceConv(in []float64, w *Tensor, b []float64, p ConvParams) []float64 {
	oh, ow := p.OutH(), p.OutW()
	out := make([]float64, p.OutC*oh*ow)
	ocpg := p.OutC / p.Groups
	cpg := p.InC / p.Groups
	for oc := 0; oc < p.OutC; oc++ {
		g := oc / ocpg
		for oy := 0; oy < oh; oy++ {
			for ox := 0; ox < ow; ox++ {
				var s float64
				for c := 0; c < cpg; c++ {
					ic := g*cpg + c
					for ky := 0; ky < p.KH; ky++ {
						iy := oy*p.Stride + ky - p.Pad
						if iy < 0 || iy >= p.InH {
							continue
						}
						for kx := 0; kx < p.KW; kx++ {
							ix := ox*p.Stride + kx - p.Pad
							if ix < 0 || ix >= p.InW {
								continue
							}
							wv := w.Data[((oc*cpg+c)*p.KH+ky)*p.KW+kx]
							s += wv * in[(ic*p.InH+iy)*p.InW+ix]
						}
					}
				}
				if b != nil {
					s += b[oc]
				}
				out[(oc*oh+oy)*ow+ox] = s
			}
		}
	}
	return out
}

func TestConv2DAgainstReference(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	configs := []ConvParams{
		{InC: 3, OutC: 8, KH: 3, KW: 3, Stride: 1, Pad: 1, InH: 8, InW: 8, Groups: 1},
		{InC: 4, OutC: 6, KH: 3, KW: 3, Stride: 2, Pad: 1, InH: 9, InW: 9, Groups: 1},
		{InC: 2, OutC: 4, KH: 1, KW: 1, Stride: 1, Pad: 0, InH: 5, InW: 5, Groups: 1},
		{InC: 6, OutC: 6, KH: 3, KW: 3, Stride: 1, Pad: 1, InH: 7, InW: 7, Groups: 6}, // depthwise
		{InC: 4, OutC: 8, KH: 3, KW: 3, Stride: 1, Pad: 0, InH: 6, InW: 6, Groups: 2}, // grouped
		{InC: 3, OutC: 5, KH: 5, KW: 5, Stride: 3, Pad: 2, InH: 11, InW: 11, Groups: 1},
	}
	for ci, p := range configs {
		in := make([]float64, p.InC*p.InH*p.InW)
		for i := range in {
			in[i] = rng.NormFloat64()
		}
		w := New(p.OutC, p.InC/p.Groups, p.KH, p.KW)
		w.RandNormal(rng, 1)
		b := make([]float64, p.OutC)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		got := Conv2D(in, w, b, p)
		want := referenceConv(in, w, b, p)
		for i := range want {
			if math.Abs(got.Data[i]-want[i]) > 1e-9 {
				t.Fatalf("config %d idx %d: %v != %v", ci, i, got.Data[i], want[i])
			}
		}
	}
}

func TestConv2DBackwardNumerically(t *testing.T) {
	// Finite-difference check on all three gradients for a small conv.
	rng := rand.New(rand.NewSource(3))
	p := ConvParams{InC: 2, OutC: 3, KH: 3, KW: 3, Stride: 1, Pad: 1, InH: 5, InW: 5, Groups: 1}
	in := make([]float64, p.InC*p.InH*p.InW)
	for i := range in {
		in[i] = rng.NormFloat64()
	}
	w := New(p.OutC, p.InC, p.KH, p.KW)
	w.RandNormal(rng, 0.5)
	b := make([]float64, p.OutC)

	// Loss = sum of outputs ⇒ upstream gradient of ones.
	loss := func() float64 {
		out := Conv2D(in, w, b, p)
		var s float64
		for _, v := range out.Data {
			s += v
		}
		return s
	}
	gout := New(p.OutC, p.OutH(), p.OutW())
	gout.Fill(1)
	dIn, dW, dB := Conv2DBackward(in, w, gout, p)

	const eps = 1e-5
	check := func(name string, x []float64, grad []float64, n int) {
		for trial := 0; trial < n; trial++ {
			i := rng.Intn(len(x))
			orig := x[i]
			x[i] = orig + eps
			up := loss()
			x[i] = orig - eps
			down := loss()
			x[i] = orig
			num := (up - down) / (2 * eps)
			if math.Abs(num-grad[i]) > 1e-4 {
				t.Fatalf("%s[%d]: numeric %v vs analytic %v", name, i, num, grad[i])
			}
		}
	}
	check("dIn", in, dIn, 10)
	check("dW", w.Data, dW.Data, 10)
	check("dB", b, dB, 3)
}

func TestIm2ColCol2ImAdjoint(t *testing.T) {
	// <Im2Col(x), y> == <x, Col2Im(y)> — the defining adjoint property.
	rng := rand.New(rand.NewSource(4))
	p := ConvParams{InC: 3, OutC: 3, KH: 3, KW: 3, Stride: 2, Pad: 1, InH: 7, InW: 7, Groups: 1}
	x := make([]float64, p.InC*p.InH*p.InW)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	cols := Im2ColInto(New(p.Groups, p.InC/p.Groups*p.KH*p.KW, p.OutH()*p.OutW()), x, p)
	y := New(cols.Shape...)
	y.RandNormal(rng, 1)

	var lhs float64
	for i := range cols.Data {
		lhs += cols.Data[i] * y.Data[i]
	}
	back := Col2Im(y, p)
	var rhs float64
	for i := range x {
		rhs += x[i] * back[i]
	}
	if math.Abs(lhs-rhs) > 1e-9 {
		t.Fatalf("adjoint mismatch: %v vs %v", lhs, rhs)
	}
}

func TestMaxPool(t *testing.T) {
	p := PoolParams{C: 1, InH: 4, InW: 4, K: 2, Stride: 2}
	in := []float64{
		1, 2, 3, 4,
		5, 6, 7, 8,
		9, 10, 11, 12,
		13, 14, 15, 16,
	}
	out := make([]float64, 4)
	MaxPool2DInto(out, in, p)
	want := []float64{6, 8, 14, 16}
	for i := range want {
		if out[i] != want[i] {
			t.Fatalf("out = %v", out)
		}
	}
	// Backward routes each gradient to the max location.
	din := make([]float64, len(in))
	MaxPool2DBackwardInto(din, []float64{1, 1, 1, 1}, in, p)
	if din[5] != 1 || din[7] != 1 || din[13] != 1 || din[15] != 1 {
		t.Fatalf("din = %v", din)
	}
	var total float64
	for _, v := range din {
		total += v
	}
	if total != 4 {
		t.Fatalf("gradient mass = %v", total)
	}
}

func TestAvgPool(t *testing.T) {
	p := PoolParams{C: 1, InH: 4, InW: 4, K: 2, Stride: 2}
	in := []float64{
		1, 2, 3, 4,
		5, 6, 7, 8,
		9, 10, 11, 12,
		13, 14, 15, 16,
	}
	out := make([]float64, 4)
	AvgPool2DInto(out, in, p)
	want := []float64{3.5, 5.5, 11.5, 13.5}
	for i := range want {
		if out[i] != want[i] {
			t.Fatalf("out = %v", out)
		}
	}
	din := make([]float64, len(in))
	AvgPool2DBackwardInto(din, []float64{4, 4, 4, 4}, p)
	for _, v := range din {
		if v != 1 {
			t.Fatalf("din = %v", din)
		}
	}
}

func TestElementwiseOps(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	a := New(10)
	b := New(10)
	a.RandUniform(rng, 2)
	b.RandUniform(rng, 2)
	orig := a.Clone()
	a.Add(b)
	a.AXPY(-1, b)
	if !a.EqualApprox(orig, 1e-12) {
		t.Fatal("add then subtract changed tensor")
	}
	a.Scale(3)
	a.Scale(1.0 / 3)
	if !a.EqualApprox(orig, 1e-12) {
		t.Fatal("scale round trip failed")
	}
	if orig.MaxAbs() <= 0 {
		t.Fatal("MaxAbs of random tensor should be positive")
	}
}

func TestConv2DGradInputMatchesFullBackward(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for _, p := range []ConvParams{
		{InC: 3, OutC: 4, KH: 3, KW: 3, Stride: 1, Pad: 1, InH: 6, InW: 6, Groups: 1},
		{InC: 4, OutC: 4, KH: 3, KW: 3, Stride: 2, Pad: 1, InH: 8, InW: 8, Groups: 4},
	} {
		in := make([]float64, p.InC*p.InH*p.InW)
		for i := range in {
			in[i] = rng.NormFloat64()
		}
		w := New(p.OutC, p.InC/p.Groups, p.KH, p.KW)
		w.RandNormal(rng, 1)
		gout := New(p.OutC, p.OutH(), p.OutW())
		gout.RandNormal(rng, 1)
		want, _, _ := Conv2DBackward(in, w, gout, p)
		got := Conv2DGradInput(make([]float64, len(in)), w, gout, p)
		for i := range want {
			if math.Abs(got[i]-want[i]) > 1e-12 {
				t.Fatalf("dIn[%d]: %v != %v", i, got[i], want[i])
			}
		}
	}
}
