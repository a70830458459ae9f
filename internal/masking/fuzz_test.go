package masking

import (
	"errors"
	"math/rand"
	"testing"

	"darknight/internal/field"
)

// FuzzDecodeForwardSubset pins the MDS decode identity and the parity
// check under fuzzed parameters, presence masks and corruptions: for any
// K/M/E the code accepts and any subset of at least S present responses
// (and for present == nil), the verified decode must equal the
// full-response decode bit-for-bit. Then one column is corrupted by a
// fuzzed delta at a fuzzed element: whenever that column is present and at
// least S+1 responses are, the decode must return ErrIntegrity; when it is
// absent, the decode must not notice. The honest results come from the
// linear map f(x) = 3·x, as in the deterministic subset tests — any
// linear map exercises the identity, and scaling keeps iterations cheap.
func FuzzDecodeForwardSubset(f *testing.F) {
	f.Add(int64(1), 2, 1, 1, 16, uint32(0b1110), 0, 0, uint32(1))
	f.Add(int64(2), 3, 2, 2, 9, uint32(0b0111110), 6, 8, uint32(12345))
	f.Add(int64(3), 1, 1, 0, 1, uint32(0b11), 1, 0, uint32(7))
	f.Add(int64(4), 4, 1, 3, 33, uint32(0xff), 3, 32, uint32(0))
	f.Add(int64(5), 4, 1, 1, 20, uint32(0b111110), 5, 4, uint32(1<<24))
	f.Fuzz(func(t *testing.T, seed int64, k, m, e, n int, mask uint32, bad, pos int, delta uint32) {
		// Clamp into the supported parameter box; tiny codes cover the
		// interesting subset combinatorics.
		k = clamp(k, 1, 5)
		m = clamp(m, 1, 3)
		e = clamp(e, 0, k+m) // E > S is rejected by Params.Validate
		n = clamp(n, 1, 64)
		rng := rand.New(rand.NewSource(seed))
		code, err := New(Params{K: k, M: m, Redundancy: e}, rng)
		if err != nil {
			t.Fatalf("New(K=%d M=%d E=%d): %v", k, m, e, err)
		}
		inputs := make([]field.Vec, k)
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
		full, err := code.DecodeForward(results)
		if err != nil {
			t.Fatal(err)
		}
		// Build a presence mask from the fuzz bits, then force validity by
		// turning columns on (low to high) until S are present.
		present := make([]bool, code.NumCoded())
		count := 0
		for j := range present {
			if mask&(1<<uint(j)) != 0 {
				present[j] = true
				count++
			}
		}
		for j := 0; count < code.S; j++ {
			if !present[j] {
				present[j] = true
				count++
			}
		}
		dst := make([]field.Vec, k)
		for i := range dst {
			dst[i] = make(field.Vec, n)
		}
		for _, mask := range [][]bool{nil, present} {
			if err := code.DecodeForwardSubsetInto(dst, results, mask); err != nil {
				t.Fatalf("subset decode (present=%v): %v", mask, err)
			}
			for i := range dst {
				for x := range dst[i] {
					if dst[i][x] != full[i][x] {
						t.Fatalf("subset decode diverges from full decode at [%d][%d]: %d != %d (present=%v)",
							i, x, dst[i][x], full[i][x], mask)
					}
				}
			}
		}

		// One corrupted column. A single error is within the detection
		// distance of any S+1 columns of an MDS code; a code with a singular
		// S-subset (probability ≈ 1/p per subset) is outside the claim.
		d := field.Reduce(uint64(delta))
		if d == 0 || !isMDS(code) {
			return
		}
		bad = clamp(bad, 0, code.NumCoded()-1)
		pos = clamp(pos, 0, n-1)
		tampered := append([]field.Vec(nil), results...)
		tampered[bad] = results[bad].Clone()
		tampered[bad][pos] = field.Add(tampered[bad][pos], d)
		for _, mask := range [][]bool{nil, present} {
			err := code.DecodeForwardSubsetInto(dst, tampered, mask)
			seen, arrived := mask == nil || mask[bad], code.NumCoded()
			if mask != nil {
				arrived = count
			}
			switch {
			case seen && arrived > code.S:
				if !errors.Is(err, ErrIntegrity) {
					t.Fatalf("column %d corrupted at %d by %d (present=%v): err = %v, want ErrIntegrity", bad, pos, d, mask, err)
				}
			case !seen:
				if err != nil {
					t.Fatalf("absent column %d corrupted (present=%v): %v", bad, mask, err)
				}
				for i := range dst {
					if !dst[i].Equal(full[i]) {
						t.Fatalf("absent column %d corrupted (present=%v): output %d changed", bad, mask, i)
					}
				}
			}
		}
	})
}

// TestValidateRejectsExcessRedundancy pins the E <= S bound the fuzzer
// flushed out: E = 3 with S = 2 used to panic inside New's secondary
// B-row merge (negative row index) because equations in [S, E) belong to
// neither decode window.
func TestValidateRejectsExcessRedundancy(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	if _, err := New(Params{K: 1, M: 1, Redundancy: 3}, rng); err == nil {
		t.Fatal("New accepted E=3 with S=2; the dual-window backward decode cannot cover it")
	}
	if _, err := New(Params{K: 1, M: 1, Redundancy: 2}, rng); err != nil {
		t.Fatalf("New rejected E=2 with S=2 (E=S is the boundary and must work): %v", err)
	}
}

func clamp(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// FuzzDecodeBackwardSubset pins the dual-window backward decode under
// fuzzed parameters and presence masks: whichever window is complete
// decodes bit-equal to DecodeBackwardInto on the full primary set, both
// complete cross-verify (and a corrupted spare window is caught), and with
// neither complete the decode refuses. Seeded with the K=2/M=1/E=2 geometry
// the train_flight workload runs: a primary-exclusive laggard, a
// secondary-exclusive one, a laggard in each window, and no laggard.
func FuzzDecodeBackwardSubset(f *testing.F) {
	f.Add(int64(1), 2, 1, 2, uint16(0b110), uint16(0b111))
	f.Add(int64(2), 2, 1, 2, uint16(0b111), uint16(0b011))
	f.Add(int64(3), 2, 1, 2, uint16(0b110), uint16(0b011))
	f.Add(int64(4), 2, 1, 2, uint16(0b111), uint16(0b111))
	f.Add(int64(5), 3, 2, 1, uint16(0b11111), uint16(0b01111))
	f.Add(int64(6), 2, 1, 0, uint16(0b111), uint16(0))
	f.Fuzz(func(t *testing.T, seed int64, k, m, e int, primMask, secMask uint16) {
		k = clamp(k, 1, 5)
		m = clamp(m, 1, 3)
		e = clamp(e, 0, k+m) // E > S is rejected by Params.Validate
		code, prim, sec, _ := backwardFixture(t, seed, Params{K: k, M: m, Redundancy: e})
		full := field.NewVec(len(prim[0]))
		if err := code.DecodeBackwardInto(full, prim); err != nil {
			t.Fatal(err)
		}
		window := func(mask uint16) ([]bool, bool) {
			present, complete := make([]bool, code.S), true
			for j := range present {
				present[j] = mask&(1<<uint(j)) != 0
				complete = complete && present[j]
			}
			return present, complete
		}
		primPresent, primOK := window(primMask)
		secPresent, secOK := window(secMask)
		if e == 0 {
			secPresent, secOK = nil, false
		}
		// Absent equations never arrived: the decode must not read them.
		hide := func(eqs []field.Vec, present []bool) []field.Vec {
			out := make([]field.Vec, len(eqs))
			for j := range eqs {
				if present[j] {
					out[j] = eqs[j]
				}
			}
			return out
		}
		gotPrim, gotSec := hide(prim, primPresent), hide(sec, secPresent)
		dst := field.NewVec(len(full))
		err := code.DecodeBackwardSubsetInto(dst, gotPrim, gotSec, primPresent, secPresent)
		if !primOK && !secOK {
			if !errors.Is(err, ErrBackwardSubset) {
				t.Fatalf("no complete window (prim=%v sec=%v): err = %v, want ErrBackwardSubset", primPresent, secPresent, err)
			}
			return
		}
		if err != nil {
			t.Fatalf("decode (prim=%v sec=%v): %v", primPresent, secPresent, err)
		}
		if !dst.Equal(full) {
			t.Fatalf("window decode diverges from the full primary decode (prim=%v sec=%v)", primPresent, secPresent)
		}
		if primOK && secOK {
			bad := append([]field.Vec(nil), gotSec...)
			bad[0] = bad[0].Clone()
			bad[0][0] = field.Add(bad[0][0], 1)
			if err := code.DecodeBackwardSubsetInto(dst, gotPrim, bad, primPresent, secPresent); !errors.Is(err, ErrIntegrity) {
				t.Fatalf("both windows complete but a corrupted spare equation passed: %v", err)
			}
		}
	})
}

// FuzzAuditForwardSubset pins the window audit to its oracle (auditOracle,
// the full-decode subset search) under fuzzed parameters, presence masks
// and up to two corrupted columns: both name the same culprits with the
// same error class, under the fuzzed mask and under nil, and whenever
// culprits are named the recovery decode over the clean present columns
// equals the oracle's full decode of the first S of them. Seeded with the
// infer_open_* shape (K=4/M=1/E=2, one tamperer, every response present),
// the train_flight code (K=2/M=1/E=2, one straggler and one tamperer) and
// E = 1, which detects but cannot attribute.
func FuzzAuditForwardSubset(f *testing.F) {
	f.Add(int64(1), 4, 1, 2, 16, uint32(0b1111111), uint8(1), 2, 0, uint32(1))
	f.Add(int64(2), 2, 1, 2, 16, uint32(0b01111), uint8(1), 1, 0, uint32(99))
	f.Add(int64(3), 2, 1, 1, 8, uint32(0b1111), uint8(1), 3, 0, uint32(5))
	f.Add(int64(4), 3, 2, 3, 9, uint32(0xff), uint8(2), 0, 6, uint32(1<<20))
	f.Fuzz(func(t *testing.T, seed int64, k, m, e, n int, mask uint32, nbad uint8, bad1, bad2 int, delta uint32) {
		k = clamp(k, 1, 4)
		m = clamp(m, 1, 2)
		e = clamp(e, 0, min(3, k+m))
		n = clamp(n, 1, 32)
		code, _, results := subsetFixture(t, Params{K: k, M: m, Redundancy: e}, n, seed)
		present := make([]bool, code.NumCoded())
		count := 0
		for j := range present {
			if mask&(1<<uint(j)) != 0 {
				present[j] = true
				count++
			}
		}
		for j := 0; count < code.S; j++ {
			if !present[j] {
				present[j] = true
				count++
			}
		}
		d := field.Reduce(uint64(delta))
		if d == 0 {
			d = 1
		}
		rng := rand.New(rand.NewSource(seed))
		for _, j := range []int{bad1, bad2}[:nbad%3] {
			j = clamp(j, 0, code.NumCoded()-1)
			x := rng.Intn(n)
			results[j][x] = field.Add(results[j][x], d)
		}
		if code.E > 0 && !isMDS(code) {
			return // a singular S-subset (probability ≈ 1/p each) moves the recovery window
		}
		for _, mask := range [][]bool{nil, present} {
			checkAuditAgainstOracle(t, "fuzzed", code, results, mask)
		}
	})
}
