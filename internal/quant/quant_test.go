package quant

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"darknight/internal/field"
)

func TestRoundMatchesAlgorithm1(t *testing.T) {
	cases := []struct {
		in   float64
		want int64
	}{
		{0, 0}, {0.49, 0}, {0.5, 1}, {0.51, 1},
		{-0.49, 0}, {-0.5, 0}, {-0.51, -1}, // floor-based: -0.5 - floor(-0.5)= 0.5 → up → 0
		{1.5, 2}, {-1.5, -1}, {2.4999, 2}, {-2.4999, -2},
	}
	for _, c := range cases {
		if got := round(c.in); got != c.want {
			t.Errorf("round(%v) = %d, want %d", c.in, got, c.want)
		}
	}
}

func TestQuantizeRoundTrip(t *testing.T) {
	q := Default()
	f := func(raw int16) bool {
		// Representable grid points: k / 2^l.
		x := float64(raw) / q.Scale()
		got := q.Unquantize(q.Quantize([]float64{x}))[0]
		return got == x
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuantizeError(t *testing.T) {
	q := Default()
	rng := rand.New(rand.NewSource(1))
	maxErr := 1.0 / q.Scale() // one ulp of the fixed-point grid
	for i := 0; i < 10000; i++ {
		x := rng.Float64()*200 - 100
		got := q.Unquantize(q.Quantize([]float64{x}))[0]
		if math.Abs(got-x) > maxErr {
			t.Fatalf("quantize error %v for x=%v exceeds %v", got-x, x, maxErr)
		}
	}
}

func TestNegativeValues(t *testing.T) {
	q := Default()
	xs := []float64{-1, -0.5, -100.25, 3.75, 0}
	got := q.Unquantize(q.Quantize(xs))
	for i := range xs {
		if got[i] != xs[i] {
			t.Errorf("x=%v round-tripped to %v", xs[i], got[i])
		}
	}
}

func TestLinearOpInField(t *testing.T) {
	// End-to-end Algorithm 1 check without masking: quantize w and x,
	// multiply in the field, add a 2^(2l)-scaled bias, unquantize the
	// product, compare to float math.
	q := Default()
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(64)
		w := make([]float64, n)
		x := make([]float64, n)
		for i := range w {
			w[i] = rng.Float64()*2 - 1
			x[i] = rng.Float64()*2 - 1
		}
		b := rng.Float64()*2 - 1

		wq := q.Quantize(w)
		xq := q.Quantize(x)
		bq := q.QuantizeBias([]float64{b})[0]
		acc := field.Dot(wq, xq)
		acc = field.Add(acc, bq)
		got := q.UnquantizeProduct(field.Vec{acc})[0]

		want := b
		for i := range w {
			want += w[i] * x[i]
		}
		// Two rounding layers: n+1 products each off by ≤ (1/2^l)·(|w|+|x|+ulp)
		// — bound loosely.
		tol := float64(n+2) * 3 / q.Scale()
		if math.Abs(got-want) > tol {
			t.Fatalf("trial %d n=%d: got %v want %v (tol %v)", trial, n, got, want, tol)
		}
	}
}

// TestUnquantizeProductExact pins the shift-form restore bit-for-bit to
// Algorithm 1's float formula Round(Lift(e) × 2^-l) × 2^-l: over every
// element of F_p at the paper's l = 8 and over a strided sample at the ends
// of the supported range, l ∈ {1, 12}. Bits, not values, are compared, so a
// -0 or a last-ulp difference fails.
func TestUnquantizeProductExact(t *testing.T) {
	for _, c := range []struct {
		l      uint
		stride uint32
	}{{8, 1}, {1, 97}, {12, 89}} {
		q := New(c.l)
		const chunk = 1 << 16
		v := make(field.Vec, 0, chunk)
		got := make([]float64, chunk)
		for lo := uint32(0); lo < field.P; {
			v = v[:0]
			for e := lo; e < field.P && len(v) < chunk; e += c.stride {
				v = append(v, e)
				lo = e + c.stride
			}
			q.UnquantizeProductInto(got[:len(v)], v)
			for i, e := range v {
				want := float64(round(float64(field.Lift(e))/q.scale)) / q.scale
				if math.Float64bits(got[i]) != math.Float64bits(want) {
					t.Fatalf("l=%d e=%d: restore %v (%#x), Algorithm 1 %v (%#x)",
						c.l, e, got[i], math.Float64bits(got[i]), want, math.Float64bits(want))
				}
			}
		}
	}
}

func TestQuantizeBiasScale(t *testing.T) {
	q := Default()
	bq := q.QuantizeBias([]float64{1})[0]
	if field.Lift(bq) != int64(q.Scale()*q.Scale()) {
		t.Fatalf("bias 1 quantized to %d, want %v", field.Lift(bq), q.Scale()*q.Scale())
	}
}

func TestNormalize(t *testing.T) {
	xs := []float64{3, -12, 6}
	f := Normalize(xs, 10)
	if f != 12 {
		t.Fatalf("factor = %v, want 12", f)
	}
	if xs[1] != -1 || xs[0] != 0.25 || xs[2] != 0.5 {
		t.Fatalf("normalized = %v", xs)
	}
	// Under the limit: untouched.
	ys := []float64{1, 2, 3}
	if f := Normalize(ys, 10); f != 1 {
		t.Fatalf("factor = %v, want 1", f)
	}
	if ys[2] != 3 {
		t.Fatal("values modified below limit")
	}
	// All-zero vector must not divide by zero.
	zs := []float64{0, 0}
	if f := Normalize(zs, 0.5); f != 1 {
		t.Fatalf("zero-vector factor = %v", f)
	}
}

func TestMaxRepresentable(t *testing.T) {
	q := Default()
	m := q.MaxRepresentable()
	v := q.Quantize([]float64{m})[0]
	if field.Lift(v) < 0 {
		t.Fatal("MaxRepresentable wraps to negative")
	}
	// Past the boundary (but below p/2^l) the centered lift goes negative.
	v2 := q.Quantize([]float64{m * 1.5})[0]
	if field.Lift(v2) >= 0 {
		t.Fatal("1.5× MaxRepresentable should wrap negative under centered lift")
	}
}

func TestBudget(t *testing.T) {
	q := Default()
	// Unit-magnitude operands only leave ~255 terms of headroom in a
	// 25-bit field — exactly the pressure that forces the paper's dynamic
	// normalization for VGG. Normalized (0.1) operands buy two orders.
	b := q.Budget(0.1, 0.1, 5, 1000)
	if !b.Fits() {
		t.Fatalf("1000-length normalized dot should fit: %+v", b)
	}
	unit := q.Budget(1, 1, 5, 1000)
	if unit.Fits() {
		t.Fatalf("1000-length unit dot should overflow: %+v", unit)
	}
	big := q.Budget(8, 8, 5, 100000)
	if big.Fits() {
		t.Fatalf("oversized dot should not fit: %+v", big)
	}
	if b.SafeLength <= 0 {
		t.Fatal("safe length must be positive")
	}
}

func TestNewPanicsOutOfRange(t *testing.T) {
	for _, l := range []uint{0, 13, 31} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%d) did not panic", l)
				}
			}()
			New(l)
		}()
	}
}
