package masking

import (
	"math/rand"
	"testing"

	"darknight/internal/field"
)

// randLinearMap returns a random linear map f: F^n -> F^out implemented as
// a matrix, standing in for "one DNN layer's linear operator" (W·x, conv).
func randLinearMap(rng *rand.Rand, n, out int) func(field.Vec) field.Vec {
	w := field.RandMat(rng, out, n)
	return func(x field.Vec) field.Vec { return field.MatVec(w, x) }
}

// matMul returns a·b over F_p.
func matMul(a, b *field.Mat) *field.Mat {
	out := field.NewMat(a.Rows, b.Cols)
	for i := 0; i < a.Rows; i++ {
		for k := 0; k < a.Cols; k++ {
			field.AXPY(out.Row(i), a.At(i, k), b.Row(k))
		}
	}
	return out
}

// decodeForward is the verified forward decode into fresh vectors, every
// response present.
func decodeForward(c *Code, results []field.Vec) ([]field.Vec, error) {
	dst := make([]field.Vec, c.K)
	for i := range dst {
		if len(results) > 0 {
			dst[i] = field.NewVec(len(results[0]))
		}
	}
	if err := c.DecodeForwardSubsetInto(dst, results, nil); err != nil {
		return nil, err
	}
	return dst, nil
}

// decodeBackward is the verified backward decode of the primary window
// into a fresh vector.
func decodeBackward(c *Code, eqs []field.Vec) (field.Vec, error) {
	var dst field.Vec
	if len(eqs) > 0 {
		dst = field.NewVec(len(eqs[0]))
	}
	if err := c.DecodeBackwardSubsetInto(dst, eqs, nil, nil, nil); err != nil {
		return nil, err
	}
	return dst, nil
}

// randBilinearMap returns a random bilinear map g: F^d × F^n -> F^{d·n}
// (the outer product scaled by a random matrix pattern — here the plain
// outer product, which is the ∇W = δ·xᵀ shape of dense layers).
func outerProduct(d, x field.Vec) field.Vec {
	out := make(field.Vec, len(d)*len(x))
	for i, di := range d {
		for j, xj := range x {
			out[i*len(x)+j] = field.Mul(di, xj)
		}
	}
	return out
}

func TestParamsValidate(t *testing.T) {
	bad := []Params{{K: 0, M: 1}, {K: 2, M: 0}, {K: 2, M: 1, Redundancy: -1}}
	for _, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("Params %+v should be invalid", p)
		}
	}
	good := Params{K: 4, M: 1, Redundancy: 1}
	if err := good.Validate(); err != nil {
		t.Errorf("Params %+v should be valid: %v", good, err)
	}
	if good.GPUs() != 6 {
		t.Errorf("GPUs() = %d, want K+M+E = 6", good.GPUs())
	}
}

func TestForwardDecodeExact(t *testing.T) {
	// Invariant 1 (DESIGN.md): decoding GPU results on coded inputs
	// reproduces f(x_i) exactly in F_p, for a range of K and M.
	rng := rand.New(rand.NewSource(1))
	for _, p := range []Params{
		{K: 1, M: 1}, {K: 2, M: 1}, {K: 4, M: 1}, {K: 6, M: 1},
		{K: 2, M: 2}, {K: 3, M: 3}, {K: 4, M: 2, Redundancy: 1},
	} {
		code, err := New(p, rng)
		if err != nil {
			t.Fatalf("%+v: %v", p, err)
		}
		const n, outDim = 50, 20
		f := randLinearMap(rng, n, outDim)
		inputs := make([]field.Vec, p.K)
		for i := range inputs {
			inputs[i] = field.RandVec(rng, n)
		}
		coded, err := code.Encode(inputs, rng)
		if err != nil {
			t.Fatal(err)
		}
		if len(coded) != p.GPUs() {
			t.Fatalf("%+v: %d coded inputs, want %d", p, len(coded), p.GPUs())
		}
		// Each (honest) GPU applies the linear map to its coded input.
		results := make([]field.Vec, len(coded))
		for j, cx := range coded {
			results[j] = f(cx)
		}
		decoded, err := decodeForward(code, results)
		if err != nil {
			t.Fatal(err)
		}
		for i := range inputs {
			if !decoded[i].Equal(f(inputs[i])) {
				t.Fatalf("%+v: input %d decoded incorrectly", p, i)
			}
		}
	}
}

func TestBackwardDecodeExact(t *testing.T) {
	// Invariant 2: Σ γ_j·g(Σ_i β_ji δ_i, x̄_j) == Σ_i g(δ_i, x_i) exactly,
	// including the collusion-tolerant variant (Eq 11/13).
	rng := rand.New(rand.NewSource(2))
	for _, p := range []Params{
		{K: 2, M: 1}, {K: 4, M: 1}, {K: 3, M: 2}, {K: 4, M: 3},
	} {
		code, err := New(p, rng)
		if err != nil {
			t.Fatal(err)
		}
		const n, d = 30, 8
		inputs := make([]field.Vec, p.K)
		deltas := make([]field.Vec, p.K)
		for i := range inputs {
			inputs[i] = field.RandVec(rng, n)
			deltas[i] = field.RandVec(rng, d)
		}
		coded, err := code.Encode(inputs, rng)
		if err != nil {
			t.Fatal(err)
		}
		// GPU j computes Eq_j = g(δ̄_j, x̄_j) with δ̄_j = Σ_i B[j,i]·δ_i.
		eqs := make([]field.Vec, code.S)
		for j := 0; j < code.S; j++ {
			deltaBar := field.NewVec(d)
			for i := 0; i < p.K; i++ {
				field.AXPY(deltaBar, code.B.At(j, i), deltas[i])
			}
			eqs[j] = outerProduct(deltaBar, coded[j])
		}
		got, err := decodeBackward(code, eqs)
		if err != nil {
			t.Fatal(err)
		}
		want := field.NewVec(d * n)
		for i := 0; i < p.K; i++ {
			field.AXPY(want, 1, outerProduct(deltas[i], inputs[i]))
		}
		if !got.Equal(want) {
			t.Fatalf("%+v: backward decode mismatch", p)
		}
	}
}

func TestEq5Condition(t *testing.T) {
	// Directly verify A_S·Γ·B == [I_K; 0] (Eq 5 / Eq 13 in our layout).
	rng := rand.New(rand.NewSource(3))
	for _, p := range []Params{{K: 3, M: 1}, {K: 4, M: 2}, {K: 2, M: 1, Redundancy: 1}} {
		code, err := New(p, rng)
		if err != nil {
			t.Fatal(err)
		}
		s := code.S
		gamma := field.NewMat(s, s)
		for i := 0; i < s; i++ {
			gamma.Set(i, i, code.Gamma[i])
		}
		aPrim := code.A.SubMatrix(0, s, 0, s)
		bPrim := field.NewMat(s, p.K)
		for j := 0; j < s; j++ {
			copy(bPrim.Row(j), code.B.Row(j))
		}
		prod := matMul(matMul(aPrim, gamma), bPrim)
		for r := 0; r < s; r++ {
			for c := 0; c < p.K; c++ {
				want := field.Elem(0)
				if r == c {
					want = 1
				}
				if prod.At(r, c) != want {
					t.Fatalf("%+v: (AΓB)[%d,%d] = %d, want %d", p, r, c, prod.At(r, c), want)
				}
			}
		}
	}
}

func TestEncodeErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	code, err := New(Params{K: 2, M: 1}, rng)
	if err != nil {
		t.Fatal(err)
	}
	// Wrong input count.
	if _, err := code.Encode([]field.Vec{field.RandVec(rng, 5)}, rng); err == nil {
		t.Fatal("expected error for wrong input count")
	}
	// Mismatched lengths.
	_, err = code.Encode([]field.Vec{field.RandVec(rng, 5), field.RandVec(rng, 6)}, rng)
	if err == nil {
		t.Fatal("expected ErrShapeMismatch")
	}
	// Too few results to decode.
	if _, err := decodeForward(code, []field.Vec{field.RandVec(rng, 5)}); err == nil {
		t.Fatal("expected decode error for missing results")
	}
	if _, err := decodeBackward(code, nil); err == nil {
		t.Fatal("expected backward decode error for missing equations")
	}
}

func TestCodedInputDiffersFromRaw(t *testing.T) {
	// Smoke privacy check: the coded vectors never equal a raw input.
	rng := rand.New(rand.NewSource(5))
	code, err := New(Params{K: 2, M: 1}, rng)
	if err != nil {
		t.Fatal(err)
	}
	inputs := []field.Vec{field.RandVec(rng, 100), field.RandVec(rng, 100)}
	coded, err := code.Encode(inputs, rng)
	if err != nil {
		t.Fatal(err)
	}
	for j, cx := range coded {
		for i, in := range inputs {
			if cx.Equal(in) {
				t.Fatalf("coded input %d equals raw input %d", j, i)
			}
		}
	}
}

func TestFreshCodePerBatch(t *testing.T) {
	// §4.1: coefficients are regenerated per virtual batch; two draws must
	// produce different A matrices (overwhelming probability).
	rng := rand.New(rand.NewSource(6))
	a, _ := New(Params{K: 3, M: 1}, rng)
	b, _ := New(Params{K: 3, M: 1}, rng)
	if a.A.Equal(b.A) {
		t.Fatal("two code draws produced identical A")
	}
}

func TestDecodeDropsNoiseImage(t *testing.T) {
	// The decoded outputs must not depend on which noise vector was drawn:
	// encode the same inputs twice (different noise), decode, compare.
	rng := rand.New(rand.NewSource(7))
	code, err := New(Params{K: 2, M: 2}, rng)
	if err != nil {
		t.Fatal(err)
	}
	f := randLinearMap(rng, 40, 10)
	inputs := []field.Vec{field.RandVec(rng, 40), field.RandVec(rng, 40)}
	var first []field.Vec
	for trial := 0; trial < 2; trial++ {
		coded, err := code.Encode(inputs, rng)
		if err != nil {
			t.Fatal(err)
		}
		results := make([]field.Vec, len(coded))
		for j := range coded {
			results[j] = f(coded[j])
		}
		decoded, err := decodeForward(code, results)
		if err != nil {
			t.Fatal(err)
		}
		if trial == 0 {
			first = decoded
			continue
		}
		for i := range decoded {
			if !decoded[i].Equal(first[i]) {
				t.Fatal("decode depends on the noise draw")
			}
		}
	}
}
