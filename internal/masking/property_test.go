package masking

import (
	"math/rand"
	"testing"
	"testing/quick"

	"darknight/internal/field"
)

// TestPropertyForwardDecode is the quick-check version of the central
// invariant: for RANDOM parameter choices and random linear maps, forward
// decode is exact.
func TestPropertyForwardDecode(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	f := func(kRaw, mRaw, eRaw uint8, nRaw uint8) bool {
		k := 1 + int(kRaw%5)
		m := 1 + int(mRaw%3)
		e := int(eRaw % 2)
		n := 4 + int(nRaw%40)
		code, err := New(Params{K: k, M: m, Redundancy: e}, rng)
		if err != nil {
			return false
		}
		lin := randLinearMap(rng, n, 1+n/2)
		inputs := make([]field.Vec, k)
		for i := range inputs {
			inputs[i] = field.RandVec(rng, n)
		}
		coded, err := code.Encode(inputs, rng)
		if err != nil {
			return false
		}
		results := make([]field.Vec, len(coded))
		for j := range coded {
			results[j] = lin(coded[j])
		}
		decoded, err := decodeForward(code, results)
		if err != nil {
			return false
		}
		for i := range inputs {
			if !decoded[i].Equal(lin(inputs[i])) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyBackwardDecode quick-checks the Eq 4–6 invariant across
// random shapes and coding parameters.
func TestPropertyBackwardDecode(t *testing.T) {
	rng := rand.New(rand.NewSource(100))
	f := func(kRaw, mRaw uint8, nRaw, dRaw uint8) bool {
		k := 1 + int(kRaw%4)
		m := 1 + int(mRaw%3)
		n := 2 + int(nRaw%20)
		d := 2 + int(dRaw%8)
		code, err := New(Params{K: k, M: m}, rng)
		if err != nil {
			return false
		}
		inputs := make([]field.Vec, k)
		deltas := make([]field.Vec, k)
		for i := range inputs {
			inputs[i] = field.RandVec(rng, n)
			deltas[i] = field.RandVec(rng, d)
		}
		coded, err := code.Encode(inputs, rng)
		if err != nil {
			return false
		}
		eqs := make([]field.Vec, code.S)
		for j := 0; j < code.S; j++ {
			bar := field.NewVec(d)
			for i := 0; i < k; i++ {
				field.AXPY(bar, code.B.At(j, i), deltas[i])
			}
			eqs[j] = outerProduct(bar, coded[j])
		}
		got, err := decodeBackward(code, eqs)
		if err != nil {
			return false
		}
		want := field.NewVec(d * n)
		for i := 0; i < k; i++ {
			field.AXPY(want, 1, outerProduct(deltas[i], inputs[i]))
		}
		return got.Equal(want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyIntegrityDetection quick-checks (K'-1)-security: corrupt a
// random non-empty subset of results; VerifyForward must always object.
func TestPropertyIntegrityDetection(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	f := func(kRaw uint8, maskRaw uint16) bool {
		k := 1 + int(kRaw%4)
		code, err := New(Params{K: k, M: 1, Redundancy: 1}, rng)
		if err != nil {
			return false
		}
		lin := randLinearMap(rng, 10, 6)
		inputs := make([]field.Vec, k)
		for i := range inputs {
			inputs[i] = field.RandVec(rng, 10)
		}
		coded, err := code.Encode(inputs, rng)
		if err != nil {
			return false
		}
		results := make([]field.Vec, len(coded))
		for j := range coded {
			results[j] = lin(coded[j])
		}
		// Corrupt a non-empty proper subset chosen by the mask (keep at
		// least one honest GPU so detection is in-contract: K'-1 secure).
		total := code.NumCoded()
		mask := int(maskRaw) % (1<<total - 1)
		if mask == 0 {
			mask = 1
		}
		for g := 0; g < total; g++ {
			if mask&(1<<g) != 0 {
				corrupt(results, g)
			}
		}
		return code.VerifyForward(results) != nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyEncodingIsLinear confirms Encode is a linear map of the
// inputs given fixed coefficients and noise: encoding x+y equals encoding
// x plus encoding y minus encoding 0 (which isolates the shared noise).
func TestPropertyEncodingIsLinear(t *testing.T) {
	rng := rand.New(rand.NewSource(102))
	code, err := New(Params{K: 2, M: 1}, rng)
	if err != nil {
		t.Fatal(err)
	}
	const n = 16
	// Encode with FIXED noise by seeding identical rngs.
	enc := func(inputs []field.Vec) []field.Vec {
		out, err := code.Encode(inputs, rand.New(rand.NewSource(55)))
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	x := []field.Vec{field.RandVec(rng, n), field.RandVec(rng, n)}
	y := []field.Vec{field.RandVec(rng, n), field.RandVec(rng, n)}
	sum := []field.Vec{field.AddVec(x[0], y[0]), field.AddVec(x[1], y[1])}
	zero := []field.Vec{field.NewVec(n), field.NewVec(n)}

	ex, ey, esum, ezero := enc(x), enc(y), enc(sum), enc(zero)
	for j := range esum {
		want := field.SubVec(field.AddVec(ex[j], ey[j]), ezero[j])
		if !esum[j].Equal(want) {
			t.Fatalf("coded vector %d: encode is not affine-linear", j)
		}
	}
}
