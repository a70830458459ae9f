package masking

import (
	"errors"
	"math/rand"
	"testing"

	"darknight/internal/field"
)

// backwardFixture builds an honest dual-window backward equation set: the S
// primary equations (published B, coded inputs [0,S)) and the S secondary
// equations (SecondaryB, coded inputs [E,S+E)), plus the true gradient.
func backwardFixture(t *testing.T, seed int64, p Params) (code *Code, prim, sec []field.Vec, want field.Vec) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	code, err := New(p, rng)
	if err != nil {
		t.Fatal(err)
	}
	const n, d = 13, 4
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
	prim = makeEqs(code.B.SubMatrix(0, code.S, 0, code.K), 0)
	if p.Redundancy > 0 {
		sec = makeEqs(code.SecondaryB(), code.E)
	}
	want = field.NewVec(d * n)
	for i := 0; i < code.K; i++ {
		field.AXPY(want, 1, outerProduct(deltas[i], inputs[i]))
	}
	return code, prim, sec, want
}

func allPresent(n int) []bool {
	p := make([]bool, n)
	for i := range p {
		p[i] = true
	}
	return p
}

// TestDecodeBackwardSubsetMatchesFull pins the straggler-tolerant backward
// decode bit-for-bit against the full primary decode, on both windows and
// on the single-window path (nil sec):
// with stragglers among the primary-exclusive slots the secondary window
// must reproduce DecodeBackward's output exactly (field arithmetic is
// exact, so the redundant decoding is not an approximation).
func TestDecodeBackwardSubsetMatchesFull(t *testing.T) {
	for _, p := range []Params{
		{K: 2, M: 1, Redundancy: 1},
		{K: 3, M: 1, Redundancy: 2},
		{K: 2, M: 2, Redundancy: 2},
	} {
		code, prim, sec, want := backwardFixture(t, 21+int64(p.K+p.Redundancy), p)
		full, err := code.DecodeBackward(prim)
		if err != nil {
			t.Fatal(err)
		}
		if !full.Equal(want) {
			t.Fatal("primary decode != true gradient")
		}

		// Primary window complete: identical to the full decode.
		dst := field.NewVec(len(full))
		if err := code.DecodeBackwardSubsetInto(dst, prim, sec, allPresent(code.S), allPresent(code.S)); err != nil {
			t.Fatal(err)
		}
		if !dst.Equal(full) {
			t.Fatal("subset decode (primary window) != full decode")
		}
		// No secondary window (slack 0): the single-window decode, unverified.
		clear(dst)
		if err := code.DecodeBackwardSubsetInto(dst, prim, nil, nil, nil); err != nil {
			t.Fatal(err)
		}
		if !dst.Equal(full) {
			t.Fatal("single-window subset decode != full decode")
		}

		// A primary-exclusive straggler: the secondary window takes over and
		// must be bit-for-bit the full decode.
		primPresent := allPresent(code.S)
		primPresent[0] = false
		dst2 := field.NewVec(len(full))
		if err := code.DecodeBackwardSubsetInto(dst2, prim, sec, primPresent, allPresent(code.S)); err != nil {
			t.Fatal(err)
		}
		if !dst2.Equal(full) {
			t.Fatal("subset decode (secondary window) != full decode (must be bit-for-bit)")
		}

		// One straggler in each window: no complete decode remains.
		secPresent := allPresent(code.S)
		secPresent[code.S-1] = false
		if err := code.DecodeBackwardSubsetInto(dst2, prim, sec, primPresent, secPresent); !errors.Is(err, ErrBackwardSubset) {
			t.Fatalf("expected ErrBackwardSubset, got %v", err)
		}
	}
}

// TestDecodeBackwardSubsetVerifies checks that when both windows complete,
// the spare decoding is spent as verification: a corrupted secondary
// equation is detected, and a corrupted primary equation disagrees with the
// clean secondary window.
func TestDecodeBackwardSubsetVerifies(t *testing.T) {
	code, prim, sec, _ := backwardFixture(t, 31, Params{K: 2, M: 1, Redundancy: 1})
	dst := field.NewVec(len(prim[0]))

	corrupted := append([]field.Vec(nil), sec...)
	corrupted[1] = sec[1].Clone()
	corrupted[1][2] = field.Add(corrupted[1][2], 7)
	if err := code.DecodeBackwardSubsetInto(dst, prim, corrupted, allPresent(code.S), allPresent(code.S)); !errors.Is(err, ErrIntegrity) {
		t.Fatalf("corrupted secondary window not detected: %v", err)
	}

	badPrim := append([]field.Vec(nil), prim...)
	badPrim[0] = prim[0].Clone()
	badPrim[0][0] = field.Add(badPrim[0][0], 1)
	if err := code.DecodeBackwardSubsetInto(dst, badPrim, sec, allPresent(code.S), allPresent(code.S)); !errors.Is(err, ErrIntegrity) {
		t.Fatalf("corrupted primary window not detected: %v", err)
	}

	// With the secondary window missing, the same corruption decodes
	// unverified — the straggler trade the caller opted into.
	secPresent := allPresent(code.S)
	secPresent[0] = false
	if err := code.DecodeBackwardSubsetInto(dst, badPrim, sec, allPresent(code.S), secPresent); err != nil {
		t.Fatalf("primary-only decode should not verify: %v", err)
	}
}

// TestDecodeBackwardSubsetNoRedundancy covers the E = 0 degenerate form.
func TestDecodeBackwardSubsetNoRedundancy(t *testing.T) {
	code, prim, _, want := backwardFixture(t, 41, Params{K: 2, M: 1})
	dst := field.NewVec(len(want))
	if err := code.DecodeBackwardSubsetInto(dst, prim, nil, allPresent(code.S), nil); err != nil {
		t.Fatal(err)
	}
	if !dst.Equal(want) {
		t.Fatal("E=0 subset decode != true gradient")
	}
	primPresent := allPresent(code.S)
	primPresent[1] = false
	if err := code.DecodeBackwardSubsetInto(dst, prim, nil, primPresent, nil); !errors.Is(err, ErrBackwardSubset) {
		t.Fatalf("E=0 with a straggler must fail: %v", err)
	}
}
