package masking

import (
	"errors"
	"fmt"

	"darknight/internal/field"
)

// ErrNoRedundancy is returned when integrity operations are requested on a
// code built with Redundancy = 0.
var ErrNoRedundancy = errors.New("masking: code has no redundant equations for integrity checks")

// ErrIntegrity is returned when GPU results fail verification.
var ErrIntegrity = errors.New("masking: integrity violation detected in GPU results")

// subsetInverse returns the inverse of the S×S submatrix of A formed by the
// given column indices, or an error if that subset is singular.
func (c *Code) subsetInverse(cols []int) (*field.Mat, error) {
	if len(cols) != c.S {
		return nil, fmt.Errorf("masking: decode subset needs %d columns, got %d", c.S, len(cols))
	}
	sub := field.NewMat(c.S, c.S)
	for r := 0; r < c.S; r++ {
		for i, col := range cols {
			sub.Set(r, i, c.A.At(r, col))
		}
	}
	return sub.Inverse()
}

// DecodeFull decodes all S underlying images — f(x₁)…f(x_K) followed by
// f(r₁)…f(r_M) — from the coded results at the given column subset. The
// noise images are normally dropped, but integrity auditing uses them to
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

// VerifyForward checks the forward-pass results for tampering without
// decoding them: each redundant response j ∈ [S, S+E) must satisfy its
// parity equation ȳ_j = Σᵢ cⱼᵢ·ȳᵢ over the primary window (§4.4: the
// "additional linear combination of inputs" computed redundantly). The
// parity rows are fixed when the code is drawn, so the check allocates
// nothing. Passing it means every S-column window decodes the same
// outputs. It returns nil if every equation holds, ErrIntegrity otherwise.
// Requires Redundancy >= 1. DecodeForwardSubsetInto runs the same checks
// and decodes.
func (c *Code) VerifyForward(results []field.Vec) error {
	if c.E == 0 {
		return ErrNoRedundancy
	}
	if len(results) < c.NumCoded() {
		return fmt.Errorf("%w: got %d results, need %d", ErrWrongCount, len(results), c.NumCoded())
	}
	results = results[:c.NumCoded()]
	for _, r := range results {
		if len(r) != len(results[0]) {
			return ErrShapeMismatch
		}
	}
	return c.checkParity(c.primary, results[:c.S], results, nil)
}

// AuditForward attempts to identify which GPUs returned corrupted results.
// It searches size-S decode subsets for one whose decoded images re-predict
// all remaining equations except at most E; the mismatching equations are
// the culprits. Identification of t simultaneous culprits needs E > t
// (t+1 redundant equations); with the paper's E = 1, corruption is
// detectable (VerifyForward) but not attributable, and AuditForward returns
// ErrIntegrity without culprits.
//
// On success it returns the (possibly empty) sorted list of faulty GPU
// indices.
func (c *Code) AuditForward(results []field.Vec) ([]int, error) {
	return c.AuditForwardSubset(results, nil)
}

// AuditForwardSubset is AuditForward restricted to the present coded
// responses (present == nil: all of them) — the straggler-path audit. Only
// present columns are searched as decode subsets and only present columns
// are cross-checked, so the effective redundancy is checks = (present
// count) - S: attributing t simultaneous culprits needs checks > t.
func (c *Code) AuditForwardSubset(results []field.Vec, present []bool) ([]int, error) {
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

// DecodeBackwardSecondary folds the redundant backward equations (computed
// by the GPUs serving coded inputs [E, S+E) with the SecondaryB
// coefficients) into the batch gradient. Comparing it with DecodeBackward's
// output verifies the backward pass.
func (c *Code) DecodeBackwardSecondary(eqs []field.Vec) (field.Vec, error) {
	if c.E == 0 {
		return nil, ErrNoRedundancy
	}
	if len(eqs) < c.S {
		return nil, fmt.Errorf("%w: got %d secondary equations, need %d", ErrWrongCount, len(eqs), c.S)
	}
	for _, e := range eqs[:c.S] {
		if len(e) != len(eqs[0]) {
			return nil, ErrShapeMismatch
		}
	}
	out := field.NewVec(len(eqs[0]))
	field.Combine(out, c.gammaSec[:c.S], eqs[:c.S])
	return out, nil
}

// VerifyBackward compares the primary and secondary backward decodings.
func (c *Code) VerifyBackward(primaryEqs, secondaryEqs []field.Vec) error {
	p, err := c.DecodeBackward(primaryEqs)
	if err != nil {
		return err
	}
	s, err := c.DecodeBackwardSecondary(secondaryEqs)
	if err != nil {
		return err
	}
	if !p.Equal(s) {
		return fmt.Errorf("%w: backward gradient decodes inconsistently", ErrIntegrity)
	}
	return nil
}
