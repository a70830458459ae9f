package masking

import (
	"errors"
	"math/rand"
	"testing"

	"darknight/internal/field"
)

// subsetFixture encodes a random batch and computes the honest per-column
// results under the linear map f(x) = 3·x (any linear map exercises the
// decode identity; scaling keeps the fixture cheap).
func subsetFixture(t *testing.T, p Params, n int, seed int64) (*Code, []field.Vec, []field.Vec) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	code, err := New(p, rng)
	if err != nil {
		t.Fatal(err)
	}
	inputs := make([]field.Vec, p.K)
	for i := range inputs {
		inputs[i] = field.RandVec(rng, n)
	}
	coded, err := code.Encode(inputs, rng)
	if err != nil {
		t.Fatal(err)
	}
	results := make([]field.Vec, len(coded))
	for j := range coded {
		results[j] = field.ScaleVec(3, coded[j])
	}
	return code, inputs, results
}

func TestSubsetDecodeBitForBitMatchesFullDecode(t *testing.T) {
	// The MDS property, pinned: decoding from ANY S present responses must
	// reproduce the full-response decode exactly — same field elements, not
	// approximately. This is what licenses the straggler path to return
	// before the slowest device.
	p := Params{K: 3, M: 1, Redundancy: 2}
	code, _, results := subsetFixture(t, p, 64, 11)
	total := code.NumCoded()

	want, err := decodeForward(code, results)
	if err != nil {
		t.Fatal(err)
	}

	// Every mask leaving at least S present (drop each single column, and
	// each pair where slack allows).
	masks := [][]bool{}
	for drop := 0; drop < total; drop++ {
		m := make([]bool, total)
		for j := range m {
			m[j] = j != drop
		}
		masks = append(masks, m)
	}
	for d1 := 0; d1 < total; d1++ {
		for d2 := d1 + 1; d2 < total; d2++ {
			m := make([]bool, total)
			for j := range m {
				m[j] = j != d1 && j != d2
			}
			masks = append(masks, m)
		}
	}
	for _, mask := range masks {
		dst := make([]field.Vec, code.K)
		for i := range dst {
			dst[i] = field.NewVec(len(results[0]))
		}
		if err := code.DecodeForwardSubsetInto(dst, results, mask); err != nil {
			t.Fatalf("mask %v: %v", mask, err)
		}
		for i := range dst {
			if !dst[i].Equal(want[i]) {
				t.Fatalf("mask %v: decoded input %d differs from full decode", mask, i)
			}
		}
	}
}

func TestSubsetDecodeVerifiesPresentEquations(t *testing.T) {
	// With one column absent (the straggler) and one present column
	// tampered, the redundant present equation must expose the corruption.
	p := Params{K: 2, M: 1, Redundancy: 2}
	code, _, results := subsetFixture(t, p, 32, 12)
	total := code.NumCoded()

	mask := make([]bool, total)
	for j := range mask {
		mask[j] = j != total-1 // last column straggles
	}
	tampered := make([]field.Vec, total)
	for j := range tampered {
		tampered[j] = results[j].Clone()
	}
	tampered[1][0] = field.Add(tampered[1][0], 1)

	dst := make([]field.Vec, code.K)
	for i := range dst {
		dst[i] = field.NewVec(len(results[0]))
	}
	err := code.DecodeForwardSubsetInto(dst, tampered, mask)
	if !errors.Is(err, ErrIntegrity) {
		t.Fatalf("tampered present column not caught: err = %v", err)
	}
}

func TestAuditForwardSubsetAttributesCulprit(t *testing.T) {
	// E=3 with one straggler absent leaves two present redundant checks —
	// enough to attribute one tampered present column.
	p := Params{K: 2, M: 1, Redundancy: 3}
	code, _, results := subsetFixture(t, p, 32, 14)
	total := code.NumCoded()

	mask := make([]bool, total)
	for j := range mask {
		mask[j] = j != total-1 // straggler
	}
	const bad = 2
	tampered := make([]field.Vec, total)
	for j := range tampered {
		tampered[j] = results[j].Clone()
	}
	tampered[bad][0] = field.Add(tampered[bad][0], 1)

	culprits, err := code.AuditForwardSubset(tampered, mask)
	if err != nil {
		t.Fatal(err)
	}
	if len(culprits) != 1 || culprits[0] != bad {
		t.Fatalf("culprits = %v, want [%d]", culprits, bad)
	}

	// With only one present check (two stragglers), the same corruption is
	// detectable but not attributable.
	mask[total-2] = false
	if _, err := code.AuditForwardSubset(tampered, mask); !errors.Is(err, ErrIntegrity) {
		t.Fatalf("err = %v, want unattributable ErrIntegrity", err)
	}
}

func TestSubsetDecodeRejectsTooFewResponses(t *testing.T) {
	p := Params{K: 2, M: 1, Redundancy: 1}
	code, _, results := subsetFixture(t, p, 16, 13)
	mask := make([]bool, code.NumCoded())
	mask[0], mask[1] = true, true // S = 3 needed
	dst := make([]field.Vec, code.K)
	for i := range dst {
		dst[i] = field.NewVec(len(results[0]))
	}
	if err := code.DecodeForwardSubsetInto(dst, results, mask); !errors.Is(err, ErrSubsetTooSmall) {
		t.Fatalf("err = %v, want ErrSubsetTooSmall", err)
	}
}
