package masking

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"darknight/internal/field"
)

// This file holds the integrity machinery the decode windows replaced,
// kept as differential oracles: full decodes of every S-subset, each
// re-predicting the other responses, for attribution; two full decodes
// compared, for detection.

// DecodeFull decodes all S underlying images — f(x₁)…f(x_K) followed by
// f(r₁)…f(r_M) — from the coded results at the given column subset. The
// noise images are normally dropped, but the audit oracle uses them to
// re-predict every equation.
func (c *Code) DecodeFull(results []field.Vec, cols []int) ([]field.Vec, error) {
	inv, err := c.subsetInverse(cols)
	if err != nil {
		return nil, err
	}
	for _, col := range cols {
		if col < 0 || col >= len(results) {
			return nil, fmt.Errorf("%w: column %d outside %d results", ErrWrongCount, col, len(results))
		}
	}
	n := len(results[cols[0]])
	srcs := make([]field.Vec, c.S)
	for j, col := range cols {
		srcs[j] = results[col]
	}
	coeff := make(field.Vec, c.S)
	out := make([]field.Vec, c.S)
	for i := 0; i < c.S; i++ {
		y := field.NewVec(n)
		for j := 0; j < c.S; j++ {
			coeff[j] = inv.At(j, i)
		}
		field.Combine(y, coeff, srcs)
		out[i] = y
	}
	return out, nil
}

// Predict recomputes what an honest GPU j must have returned, given the
// full decoded images: ȳ_j = Σ_m A[m,j]·f_m. Linearity makes this exact.
func (c *Code) Predict(full []field.Vec, j int) field.Vec {
	out := field.NewVec(len(full[0]))
	coeff := make(field.Vec, c.S)
	for m := 0; m < c.S; m++ {
		coeff[m] = c.A.At(m, j)
	}
	field.Combine(out, coeff, full[:c.S])
	return out
}

// auditOracle is the subset search AuditForwardSubset ran before it moved
// onto the decode windows: fully decode every S-subset of the present
// columns, in lexicographic order, re-predict every other present column
// from it, and keep the first subset with the fewest mismatches.
func auditOracle(c *Code, results []field.Vec, present []bool) ([]int, error) {
	if c.E == 0 {
		return nil, ErrNoRedundancy
	}
	if len(results) < c.NumCoded() || (present != nil && len(present) != len(results)) {
		return nil, fmt.Errorf("%w: got %d results / %d mask entries, code has %d columns",
			ErrWrongCount, len(results), len(present), c.NumCoded())
	}
	var cols []int
	for j := 0; j < c.NumCoded(); j++ {
		if present == nil || present[j] {
			cols = append(cols, j)
		}
	}
	if len(cols) < c.S {
		return nil, fmt.Errorf("%w: %d responses present, need %d", ErrSubsetTooSmall, len(cols), c.S)
	}
	checks := len(cols) - c.S
	best := []int(nil)
	bestCount := len(cols) + 1
	found := false
	subset := make([]int, c.S)
	try := func(chosen []int) {
		full, err := c.DecodeFull(results, chosen)
		if err != nil {
			return // singular subset; skip
		}
		inSubset := make(map[int]bool, len(chosen))
		for _, col := range chosen {
			inSubset[col] = true
		}
		var mismatches []int
		for _, j := range cols {
			if inSubset[j] {
				continue
			}
			if !c.Predict(full, j).Equal(results[j]) {
				mismatches = append(mismatches, j)
			}
		}
		if len(mismatches) < bestCount {
			bestCount = len(mismatches)
			best = mismatches
			found = true
		}
	}
	var search func(start, depth int)
	search = func(start, depth int) {
		if bestCount == 0 {
			return // perfect subset already found
		}
		if depth == c.S {
			try(subset)
			return
		}
		for i := start; i <= len(cols)-(c.S-depth); i++ {
			subset[depth] = cols[i]
			search(i+1, depth+1)
		}
	}
	search(0, 0)
	if !found {
		return nil, fmt.Errorf("%w: no invertible decode subset", ErrIntegrity)
	}
	// A consistent subset explains all but `bestCount` present equations.
	// Those are attributable culprits only if enough redundancy remains to
	// have cross-checked them.
	if bestCount > checks-1 && bestCount > 0 {
		return nil, fmt.Errorf("%w: corruption detected but not attributable with %d present checks", ErrIntegrity, checks)
	}
	return best, nil
}

// twoWindowVerify is the forward integrity check the parity rows replaced,
// kept as the differential oracle: decode the K outputs from the primary
// window [0, S) and from the trailing window [E, S+E) and compare (§4.4:
// "computing it redundantly at least twice using at least two sets of
// equations").
func twoWindowVerify(c *Code, results []field.Vec) error {
	prim, err := c.DecodeFull(results, seq(c.S))
	if err != nil {
		return err
	}
	secCols := seq(c.S)
	for i := range secCols {
		secCols[i] += c.E
	}
	sec, err := c.DecodeFull(results, secCols)
	if err != nil {
		return err
	}
	for i := 0; i < c.K; i++ {
		if !prim[i].Equal(sec[i]) {
			return fmt.Errorf("%w: input %d decodes inconsistently", ErrIntegrity, i)
		}
	}
	return nil
}

// errClass names the verdict class of an audit error.
func errClass(err error) string {
	switch {
	case err == nil:
		return "ok"
	case errors.Is(err, ErrNoRedundancy):
		return "no redundancy"
	case errors.Is(err, ErrSubsetTooSmall):
		return "too few"
	case errors.Is(err, ErrIntegrity):
		return "integrity"
	default:
		return err.Error()
	}
}

// checkAuditAgainstOracle runs the window audit and the oracle on one
// response set and requires the same culprits and error class. When the
// audit names culprits, the verified decode over the present columns minus
// the culprits — the recovery decode — must succeed and equal the oracle's
// full decode of the first S clean columns.
func checkAuditAgainstOracle(t *testing.T, label string, code *Code, results []field.Vec, present []bool) {
	t.Helper()
	got, err := code.AuditForwardSubset(results, present)
	want, oerr := auditOracle(code, results, present)
	if !slices.Equal(got, want) || errClass(err) != errClass(oerr) {
		t.Fatalf("%s, present %v: audit (%v, %v), oracle (%v, %v)", label, present, got, err, want, oerr)
	}
	if len(got) == 0 {
		return
	}
	clean := make([]bool, code.NumCoded())
	var cols []int
	for j := range clean {
		clean[j] = (present == nil || present[j]) && !slices.Contains(got, j)
		if clean[j] && len(cols) < code.S {
			cols = append(cols, j)
		}
	}
	full, err := code.DecodeFull(results, cols)
	if err != nil {
		t.Fatal(err)
	}
	dst := newDst(code.K, len(results[cols[0]]))
	if err := code.DecodeForwardSubsetInto(dst, results, clean); err != nil {
		t.Fatalf("%s, present %v, culprits %v: recovery decode: %v", label, present, got, err)
	}
	for i := range dst {
		if !dst[i].Equal(full[i]) {
			t.Fatalf("%s, present %v, culprits %v: recovered output %d differs from the oracle's clean decode", label, present, got, i)
		}
	}
}

// TestAuditForwardSubsetMatchesOracle is the differential pin of the window
// audit over two random codes per shape K ≤ 4, M ≤ 2, 1 ≤ E ≤ 3: under
// every valid presence mask and nil, with no corrupted column, every single
// one and every pair, the audit names the oracle's culprits with the
// oracle's error class, and the recovery decode equals the oracle's.
func TestAuditForwardSubsetMatchesOracle(t *testing.T) {
	cases := 0
	for k := 1; k <= 4; k++ {
		for m := 1; m <= 2; m++ {
			for e := 1; e <= 3 && e <= k+m; e++ {
				for _, seed := range []int64{int64(100*k + 10*m + e), int64(1000 + 100*k + 10*m + e)} {
					code, _, honest := subsetFixture(t, Params{K: k, M: m, Redundancy: e}, 6, seed)
					if !isMDS(code) {
						t.Fatalf("K%dM%dE%d seed %d drew a code with a singular S-subset; pick another seed", k, m, e, seed)
					}
					rng := rand.New(rand.NewSource(seed))
					corruptions := [][]int{nil}
					for a := 0; a < code.NumCoded(); a++ {
						corruptions = append(corruptions, []int{a})
						for b := a + 1; b < code.NumCoded(); b++ {
							corruptions = append(corruptions, []int{a, b})
						}
					}
					for _, cols := range corruptions {
						results := cloneResults(honest)
						for _, j := range cols {
							x := rng.Intn(len(results[j]))
							results[j][x] = field.Add(results[j][x], field.RandNonZero(rng))
						}
						label := fmt.Sprintf("K%dM%dE%d seed %d corrupted %v", k, m, e, seed, cols)
						for _, mask := range append([][]bool{nil}, validMasks(code)...) {
							checkAuditAgainstOracle(t, label, code, results, mask)
							cases++
						}
					}
				}
			}
		}
	}
	t.Logf("%d audit cases agree with the oracle", cases)
}
