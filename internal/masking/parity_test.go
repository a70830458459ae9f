package masking

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"darknight/internal/field"
)

// isMDS reports whether every S-column subset of A is invertible — the
// property under which any S present responses decode and any E errors
// are detectable. New guarantees it for the two backward windows; for the
// rest a singular subset has probability about 1/p each.
func isMDS(c *Code) bool {
	cols := make([]int, c.S)
	var ok func(start, depth int) bool
	ok = func(start, depth int) bool {
		if depth == c.S {
			_, err := c.subsetInverse(cols)
			return err == nil
		}
		for j := start; j <= c.NumCoded()-(c.S-depth); j++ {
			cols[depth] = j
			if !ok(j+1, depth+1) {
				return false
			}
		}
		return true
	}
	return ok(0, 0)
}

// validMasks returns every presence mask with at least S of the code's
// columns present.
func validMasks(c *Code) [][]bool {
	var out [][]bool
	for bits := 0; bits < 1<<c.NumCoded(); bits++ {
		m := make([]bool, c.NumCoded())
		n := 0
		for j := range m {
			m[j] = bits&(1<<j) != 0
			if m[j] {
				n++
			}
		}
		if n >= c.S {
			out = append(out, m)
		}
	}
	return out
}

func cloneResults(rs []field.Vec) []field.Vec {
	out := make([]field.Vec, len(rs))
	for j := range rs {
		out[j] = rs[j].Clone()
	}
	return out
}

func newDst(k, n int) []field.Vec {
	dst := make([]field.Vec, k)
	for i := range dst {
		dst[i] = field.NewVec(n)
	}
	return dst
}

// TestParityCheckDominatesTwoWindowOracle is the differential pin of the
// forward verifier over random codes K ≤ 4, M ≤ 2, 1 ≤ E ≤ 3: honest
// responses pass and decode bit-identically to DecodeForwardInto under
// every valid presence mask; every single-column and every pair-of-columns
// corruption the two-window oracle rejects, the parity check rejects too;
// and, the code being MDS, every corruption of at most E columns is
// rejected.
func TestParityCheckDominatesTwoWindowOracle(t *testing.T) {
	for k := 1; k <= 4; k++ {
		for m := 1; m <= 2; m++ {
			for e := 1; e <= 3 && e <= k+m; e++ {
				t.Run(fmt.Sprintf("K%dM%dE%d", k, m, e), func(t *testing.T) {
					seed := int64(100*k + 10*m + e)
					code, _, results := subsetFixture(t, Params{K: k, M: m, Redundancy: e}, 24, seed)
					if !isMDS(code) {
						t.Fatalf("seed %d drew a code with a singular S-subset; pick another seed", seed)
					}
					checkHonest(t, code, results)
					rng := rand.New(rand.NewSource(seed))
					total := code.NumCoded()
					for a := 0; a < total; a++ {
						checkCorrupted(t, code, results, rng, a)
						for b := a + 1; b < total; b++ {
							checkCorrupted(t, code, results, rng, a, b)
						}
					}
				})
			}
		}
	}
}

func checkHonest(t *testing.T, code *Code, results []field.Vec) {
	t.Helper()
	n := len(results[0])
	want := newDst(code.K, n)
	if err := code.DecodeForwardInto(want, results); err != nil {
		t.Fatal(err)
	}
	if err := code.VerifyForward(results); err != nil {
		t.Fatalf("honest responses fail VerifyForward: %v", err)
	}
	if err := twoWindowVerify(code, results); err != nil {
		t.Fatalf("honest responses fail the oracle: %v", err)
	}
	masks := append([][]bool{nil}, validMasks(code)...)
	for _, mask := range masks {
		dst := newDst(code.K, n)
		if err := code.DecodeForwardSubsetInto(dst, results, mask); err != nil {
			t.Fatalf("honest decode (mask %v): %v", mask, err)
		}
		for i := range dst {
			if !dst[i].Equal(want[i]) {
				t.Fatalf("mask %v: output %d differs from DecodeForwardInto", mask, i)
			}
		}
	}
}

// checkCorrupted adds an independent random non-zero delta at a random
// element of each of the given columns and compares the verdicts.
func checkCorrupted(t *testing.T, code *Code, honest []field.Vec, rng *rand.Rand, cols ...int) {
	t.Helper()
	results := cloneResults(honest)
	for _, j := range cols {
		x := rng.Intn(len(results[j]))
		results[j][x] = field.Add(results[j][x], field.RandNonZero(rng))
	}
	oracle := twoWindowVerify(code, results) != nil
	verr := code.VerifyForward(results)
	derr := code.DecodeForwardSubsetInto(newDst(code.K, len(results[0])), results, nil)
	for _, err := range []error{verr, derr} {
		if err != nil && !errors.Is(err, ErrIntegrity) {
			t.Fatalf("corrupted %v: %v, want ErrIntegrity", cols, err)
		}
	}
	if (verr == nil) != (derr == nil) {
		t.Fatalf("corrupted %v: VerifyForward %v but verified decode %v", cols, verr, derr)
	}
	if oracle && verr == nil {
		t.Fatalf("corrupted %v: the two-window oracle rejects, the parity check accepts", cols)
	}
	if len(cols) <= code.E && verr == nil {
		t.Fatalf("corrupted %v at E=%d: within the code's detection distance, accepted", cols, code.E)
	}
}

// TestStragglerWindowIsCachedAndVerified pins the straggler path's window
// handling: a mask whose first S present columns are not the primary
// window decodes from that window, re-uses it on the next call, and still
// rejects a corrupted present column.
func TestStragglerWindowIsCachedAndVerified(t *testing.T) {
	code, _, results := subsetFixture(t, Params{K: 2, M: 1, Redundancy: 2}, 16, 21)
	want := newDst(code.K, 16)
	if err := code.DecodeForwardInto(want, results); err != nil {
		t.Fatal(err)
	}
	mask := []bool{false, true, true, true, true} // window {1,2,3}, check {4}
	for call := 0; call < 2; call++ {
		dst := newDst(code.K, 16)
		if err := code.DecodeForwardSubsetInto(dst, results, mask); err != nil {
			t.Fatal(err)
		}
		for i := range dst {
			if !dst[i].Equal(want[i]) {
				t.Fatalf("call %d: output %d differs from the primary decode", call, i)
			}
		}
		if len(code.windows) != 1 || fmt.Sprint(code.windows[0].cols) != "[1 2 3]" {
			t.Fatalf("call %d: cached windows %v, want exactly [1 2 3]", call, code.windows)
		}
	}
	bad := cloneResults(results)
	bad[4][3] = field.Add(bad[4][3], 1)
	if err := code.DecodeForwardSubsetInto(newDst(code.K, 16), bad, mask); !errors.Is(err, ErrIntegrity) {
		t.Fatalf("corrupted check column: %v, want ErrIntegrity", err)
	}
	bad = cloneResults(results)
	bad[0][3] = field.Add(bad[0][3], 1) // absent: never read
	if err := code.DecodeForwardSubsetInto(newDst(code.K, 16), bad, mask); err != nil {
		t.Fatalf("corrupted absent column: %v", err)
	}
}
