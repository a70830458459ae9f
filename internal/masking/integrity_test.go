package masking

import (
	"errors"
	"math/rand"
	"testing"

	"darknight/internal/field"
)

// corrupt flips one element of the result vector for GPU g, modelling a
// malicious or faulty accelerator (§4.4 threat).
func corrupt(results []field.Vec, g int) {
	results[g] = results[g].Clone()
	results[g][0] = field.Add(results[g][0], 1)
}

func honestResults(t *testing.T, code *Code, rng *rand.Rand, n, out int) ([]field.Vec, []field.Vec, func(field.Vec) field.Vec) {
	t.Helper()
	f := randLinearMap(rng, n, out)
	inputs := make([]field.Vec, code.K)
	for i := range inputs {
		inputs[i] = field.RandVec(rng, n)
	}
	coded, err := code.Encode(inputs, rng)
	if err != nil {
		t.Fatal(err)
	}
	results := make([]field.Vec, len(coded))
	for j := range coded {
		results[j] = f(coded[j])
	}
	return results, inputs, f
}

func TestVerifyForwardHonest(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	code, err := New(Params{K: 3, M: 1, Redundancy: 1}, rng)
	if err != nil {
		t.Fatal(err)
	}
	results, _, _ := honestResults(t, code, rng, 32, 12)
	if err := code.VerifyForward(results); err != nil {
		t.Fatalf("honest results rejected: %v", err)
	}
}

func TestVerifyForwardDetectsEveryCulprit(t *testing.T) {
	// (K'-1)-security: a single corrupted result at ANY position is
	// detected.
	rng := rand.New(rand.NewSource(2))
	code, err := New(Params{K: 3, M: 1, Redundancy: 1}, rng)
	if err != nil {
		t.Fatal(err)
	}
	for g := 0; g < code.NumCoded(); g++ {
		results, _, _ := honestResults(t, code, rng, 16, 8)
		corrupt(results, g)
		if err := code.VerifyForward(results); !errors.Is(err, ErrIntegrity) {
			t.Fatalf("corruption at GPU %d not detected: %v", g, err)
		}
	}
}

func TestVerifyForwardDetectsManyCulprits(t *testing.T) {
	// Detection must survive up to K'-1 simultaneously corrupted results.
	rng := rand.New(rand.NewSource(3))
	code, err := New(Params{K: 2, M: 1, Redundancy: 1}, rng)
	if err != nil {
		t.Fatal(err)
	}
	results, _, _ := honestResults(t, code, rng, 16, 8)
	for g := 0; g < code.NumCoded()-1; g++ {
		corrupt(results, g)
	}
	if err := code.VerifyForward(results); !errors.Is(err, ErrIntegrity) {
		t.Fatalf("mass corruption not detected: %v", err)
	}
}

func TestVerifyForwardRequiresRedundancy(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	code, err := New(Params{K: 2, M: 1}, rng)
	if err != nil {
		t.Fatal(err)
	}
	results, _, _ := honestResults(t, code, rng, 8, 4)
	if err := code.VerifyForward(results); !errors.Is(err, ErrNoRedundancy) {
		t.Fatalf("err = %v, want ErrNoRedundancy", err)
	}
}

func TestAuditForwardIdentifiesSingleCulprit(t *testing.T) {
	// With E = 2 redundant equations a single culprit is attributable.
	rng := rand.New(rand.NewSource(5))
	code, err := New(Params{K: 2, M: 1, Redundancy: 2}, rng)
	if err != nil {
		t.Fatal(err)
	}
	for g := 0; g < code.NumCoded(); g++ {
		results, _, _ := honestResults(t, code, rng, 12, 6)
		corrupt(results, g)
		culprits, err := code.AuditForward(results)
		if err != nil {
			t.Fatalf("audit failed for culprit %d: %v", g, err)
		}
		if len(culprits) != 1 || culprits[0] != g {
			t.Fatalf("culprits = %v, want [%d]", culprits, g)
		}
	}
}

func TestAuditForwardHonest(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	code, err := New(Params{K: 2, M: 1, Redundancy: 2}, rng)
	if err != nil {
		t.Fatal(err)
	}
	results, _, _ := honestResults(t, code, rng, 12, 6)
	culprits, err := code.AuditForward(results)
	if err != nil {
		t.Fatal(err)
	}
	if len(culprits) != 0 {
		t.Fatalf("honest run produced culprits %v", culprits)
	}
}

func TestAuditForwardE1DetectsButCannotAttribute(t *testing.T) {
	// The paper's E = 1 setup detects tampering; attribution needs more
	// redundancy ("TEE may perform additional corrective action ... outside
	// the scope").
	rng := rand.New(rand.NewSource(7))
	code, err := New(Params{K: 2, M: 1, Redundancy: 1}, rng)
	if err != nil {
		t.Fatal(err)
	}
	results, _, _ := honestResults(t, code, rng, 12, 6)
	corrupt(results, 1)
	if _, err := code.AuditForward(results); !errors.Is(err, ErrIntegrity) {
		t.Fatalf("err = %v, want ErrIntegrity", err)
	}
}

func TestDecodeFullRecoversNoiseImages(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	code, err := New(Params{K: 2, M: 1, Redundancy: 1}, rng)
	if err != nil {
		t.Fatal(err)
	}
	const n, out = 20, 10
	f := randLinearMap(rng, n, out)
	inputs := []field.Vec{field.RandVec(rng, n), field.RandVec(rng, n)}
	coded, err := code.Encode(inputs, rng)
	if err != nil {
		t.Fatal(err)
	}
	results := make([]field.Vec, len(coded))
	for j := range coded {
		results[j] = f(coded[j])
	}
	cols := []int{0, 1, 2}
	full, err := code.DecodeFull(results, cols)
	if err != nil {
		t.Fatal(err)
	}
	// First K images are f(x_i); predictions reproduce every equation.
	for i := range inputs {
		if !full[i].Equal(f(inputs[i])) {
			t.Fatalf("decoded image %d wrong", i)
		}
	}
	for j := 0; j < code.NumCoded(); j++ {
		if !code.Predict(full, j).Equal(results[j]) {
			t.Fatalf("prediction for equation %d mismatches honest result", j)
		}
	}
}

func TestVerifyBackward(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	code, err := New(Params{K: 2, M: 1, Redundancy: 1}, rng)
	if err != nil {
		t.Fatal(err)
	}
	const n, d = 15, 5
	inputs := []field.Vec{field.RandVec(rng, n), field.RandVec(rng, n)}
	deltas := []field.Vec{field.RandVec(rng, d), field.RandVec(rng, d)}
	coded, err := code.Encode(inputs, rng)
	if err != nil {
		t.Fatal(err)
	}
	makeEqs := func(b *field.Mat, colOffset int) []field.Vec {
		eqs := make([]field.Vec, code.S)
		for j := 0; j < code.S; j++ {
			deltaBar := field.NewVec(d)
			for i := 0; i < code.K; i++ {
				field.AXPY(deltaBar, b.At(j, i), deltas[i])
			}
			eqs[j] = outerProduct(deltaBar, coded[colOffset+j])
		}
		return eqs
	}
	primB := field.NewMat(code.S, code.K)
	for j := 0; j < code.S; j++ {
		copy(primB.Row(j), code.B.Row(j))
	}
	primary := makeEqs(primB, 0)
	secondary := makeEqs(code.SecondaryB(), code.E)

	dst := field.NewVec(d * n)
	if err := code.DecodeBackwardSubsetInto(dst, primary, secondary, nil, nil); err != nil {
		t.Fatalf("honest backward rejected: %v", err)
	}
	// Secondary decode equals primary decode equals the true gradient.
	want := field.NewVec(d * n)
	for i := 0; i < code.K; i++ {
		field.AXPY(want, 1, outerProduct(deltas[i], inputs[i]))
	}
	if !dst.Equal(want) {
		t.Fatal("verified backward decode != true gradient")
	}
	primPresent := []bool{false, true, true} // primary incomplete: the secondary window decodes
	if err := code.DecodeBackwardSubsetInto(dst, primary, secondary, primPresent, nil); err != nil {
		t.Fatal(err)
	}
	if !dst.Equal(want) {
		t.Fatal("secondary backward decode != true gradient")
	}
	// Corrupt one primary equation: mismatch must be detected.
	primary[0] = primary[0].Clone()
	primary[0][3] = field.Add(primary[0][3], 5)
	if err := code.DecodeBackwardSubsetInto(dst, primary, secondary, nil, nil); !errors.Is(err, ErrIntegrity) {
		t.Fatalf("corrupted backward not detected: %v", err)
	}
}

func TestSecondaryBNilWithoutRedundancy(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	code, _ := New(Params{K: 2, M: 1}, rng)
	if code.SecondaryB() != nil {
		t.Fatal("SecondaryB should be nil for E=0")
	}
}
