package masking

import (
	"math/rand"
	"testing"

	"darknight/internal/field"
	"darknight/internal/par"
	"darknight/internal/spec"
)

// specCode is the code's exported part the reference kernels read.
func specCode(c *Code) spec.Code {
	return spec.Code{K: c.K, M: c.M, S: c.S, A: c.A, Gamma: c.Gamma}
}

// TestFusedCodingMatchesRef pins the blocked lazy-reduction coding kernels
// bit-for-bit to the retained seed kernels over F_p: identical noise
// streams in, identical coded vectors, decodes and backward folds out —
// serially and with parallelism forced on.
func TestFusedCodingMatchesRef(t *testing.T) {
	// Restore the fan-out override even if a Fatalf fires mid-loop.
	defer par.SetMaxWorkers(par.SetMaxWorkers(0))
	for _, workers := range []int{1, 4} {
		par.SetMaxWorkers(workers)
		code, err := New(Params{K: 3, M: 2, Redundancy: 1}, rand.New(rand.NewSource(31)))
		if err != nil {
			t.Fatal(err)
		}
		n := 5000
		dataRng := rand.New(rand.NewSource(32))
		inputs := make([]field.Vec, code.K)
		for i := range inputs {
			inputs[i] = field.RandVec(dataRng, n)
		}

		// Same noise stream for both paths: identical seeds, identical draw
		// order (spec.Encode draws rows K..K+M-1 in order, as does Encode).
		ref := specCode(code)
		refCoded := spec.Encode(ref, inputs, rand.New(rand.NewSource(33)))
		coded, err := code.Encode(inputs, rand.New(rand.NewSource(33)))
		if err != nil {
			t.Fatal(err)
		}
		for j := range coded {
			if !coded[j].Equal(refCoded[j]) {
				t.Fatalf("workers=%d: coded vector %d diverges from reference", workers, j)
			}
		}

		refDec := spec.DecodeForward(ref, coded)
		dec, err := decodeForward(code, coded)
		if err != nil {
			t.Fatal(err)
		}
		for i := range dec {
			if !dec[i].Equal(refDec[i]) {
				t.Fatalf("workers=%d: decoded vector %d diverges from reference", workers, i)
			}
			if !dec[i].Equal(inputs[i]) {
				t.Fatalf("workers=%d: decode(encode) is not the identity at %d", workers, i)
			}
		}

		refBwd := spec.DecodeBackward(ref, coded)
		bwd, err := decodeBackward(code, coded)
		if err != nil {
			t.Fatal(err)
		}
		if !bwd.Equal(refBwd) {
			t.Fatalf("workers=%d: backward fold diverges from reference", workers)
		}
	}
}

// TestSteadyStateAllocationRegression pins the allocation behaviour of the
// steady-state serving loop — noise draw, EncodeWith, DecodeForwardInto on
// caller-owned buffers — at zero allocations per iteration, at least 10x
// below the retained per-op-allocating reference kernels. Width is forced
// to 1 because the measurement target is the TEE loop's own allocations,
// not the transient goroutine spawns of the multicore fan-out.
func TestSteadyStateAllocationRegression(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector deliberately bypasses sync.Pool, so allocation counts are meaningless under -race")
	}
	defer par.SetMaxWorkers(par.SetMaxWorkers(1))
	rng := rand.New(rand.NewSource(41))
	code, err := New(Params{K: 4, M: 1, Redundancy: 1}, rng)
	if err != nil {
		t.Fatal(err)
	}
	n := 4096
	inputs := make([]field.Vec, code.K)
	for i := range inputs {
		inputs[i] = field.RandVec(rng, n)
	}
	noise := make([]field.Vec, code.M)
	for i := range noise {
		noise[i] = field.NewVec(n)
	}
	coded := make([]field.Vec, code.NumCoded())
	for i := range coded {
		coded[i] = field.NewVec(n)
	}
	decoded := make([]field.Vec, code.K)
	for i := range decoded {
		decoded[i] = field.NewVec(n)
	}

	steady := func() {
		for i := range noise {
			field.RandVecInto(rng, noise[i])
		}
		if err := code.EncodeWith(coded, inputs, noise); err != nil {
			t.Fatal(err)
		}
		if err := code.DecodeForwardInto(decoded, coded); err != nil {
			t.Fatal(err)
		}
	}
	steady() // warm the Code's gather scratch and the accumulator pool

	got := testing.AllocsPerRun(50, steady)
	ref := testing.AllocsPerRun(50, func() {
		spec.DecodeForward(specCode(code), spec.Encode(specCode(code), inputs, rng))
	})

	t.Logf("steady-state allocs/op: %.2f (reference kernels: %.2f)", got, ref)
	if got != 0 {
		t.Fatalf("steady-state encode/decode loop allocates %.2f times per op, want 0", got)
	}
	if ref < 10 {
		t.Fatalf("reference kernels allocate only %.2f times per op; regression baseline is broken", ref)
	}
}

// TestVerifiedDecodeAllocationRegression pins the verified decodes at zero
// allocations per call once warm: the forward full-gang decode at E = 1 and
// E = 2 (parity rows fixed by New), VerifyForward on its own, a straggler
// mask whose decode window is not the primary one (its inverse and parity
// rows built on the first call, then cached), and the backward decode with
// both windows complete — the spare one checked, not decoded — given as
// all-true masks and as nil ones.
func TestVerifiedDecodeAllocationRegression(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector deliberately bypasses sync.Pool, so allocation counts are meaningless under -race")
	}
	defer par.SetMaxWorkers(par.SetMaxWorkers(1))
	for _, e := range []int{1, 2} {
		p := Params{K: 4, M: 1, Redundancy: e}
		code, _, coded := subsetFixture(t, p, 4096, int64(50+e))
		decoded := newDst(code.K, 4096)
		straggler := make([]bool, code.NumCoded())
		for j := range straggler {
			straggler[j] = j != 0 // window {1..S}: not the primary one
		}
		bcode, prim, sec, _ := backwardFixture(t, int64(60+e), p)
		grad := field.NewVec(len(prim[0]))
		complete := allPresent(bcode.S)
		for name, op := range map[string]func() error{
			"DecodeForwardSubsetInto(nil)":       func() error { return code.DecodeForwardSubsetInto(decoded, coded, nil) },
			"VerifyForward":                      func() error { return code.VerifyForward(coded) },
			"DecodeForwardSubsetInto(straggler)": func() error { return code.DecodeForwardSubsetInto(decoded, coded, straggler) },
			"DecodeBackwardSubsetInto(complete)": func() error {
				return bcode.DecodeBackwardSubsetInto(grad, prim, sec, complete, complete)
			},
			"DecodeBackwardSubsetInto(nil)": func() error { return bcode.DecodeBackwardSubsetInto(grad, prim, sec, nil, nil) },
		} {
			if err := op(); err != nil { // warm the scratch, the pool and the window cache
				t.Fatalf("E=%d %s: %v", e, name, err)
			}
			got := testing.AllocsPerRun(50, func() {
				if err := op(); err != nil {
					t.Fatal(err)
				}
			})
			if got != 0 {
				t.Errorf("E=%d %s allocates %.2f times per op, want 0", e, name, got)
			}
		}
	}
}

// TestEncodeAllocationRegression pins the convenience Encode path (the
// non-With entry that draws its own noise): only the escaping coded vectors
// and their header may allocate. The M internally drawn noise rows never
// escape, so they ride the Code's reusable scratch exactly like the gather
// scratch under EncodeWith — previously they were M fresh vector
// allocations of garbage per call.
func TestEncodeAllocationRegression(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector inflates allocation counts")
	}
	defer par.SetMaxWorkers(par.SetMaxWorkers(1))
	rng := rand.New(rand.NewSource(43))
	code, err := New(Params{K: 3, M: 2, Redundancy: 1}, rng)
	if err != nil {
		t.Fatal(err)
	}
	n := 4096
	inputs := make([]field.Vec, code.K)
	for i := range inputs {
		inputs[i] = field.RandVec(rng, n)
	}
	if _, err := code.Encode(inputs, rng); err != nil {
		t.Fatal(err) // warm the gather and noise scratch
	}
	got := testing.AllocsPerRun(50, func() {
		if _, err := code.Encode(inputs, rng); err != nil {
			t.Fatal(err)
		}
	})
	// One header slice + NumCoded escaping vectors; anything beyond that is
	// the noise-scratch regression coming back.
	limit := float64(code.NumCoded() + 1)
	t.Logf("Encode allocs/op: %.2f (escape budget %.0f)", got, limit)
	if got > limit {
		t.Fatalf("Encode allocates %.2f per call, want <= %.0f (the %d noise rows must reuse scratch)",
			got, limit, code.M)
	}
}
