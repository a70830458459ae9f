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
// responses (present == nil: all of them) — the straggler-path audit. It
// runs on the decode windows of the verified decode: each S-subset of the
// present columns, walked in lexicographic order, is a window (windowOf:
// built on first use, then cached), and the present columns outside it
// that fail their parity rows are the ones its decode could not explain.
// The first window with the fewest failures names the culprits; no image is
// decoded. The effective redundancy is checks = (present count) − S:
// attributing t simultaneous culprits needs checks > t.
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
			if len(cols) > 0 && len(results[j]) != len(results[cols[0]]) {
				return nil, ErrShapeMismatch
			}
			cols = append(cols, j)
		}
	}
	if len(cols) < c.S {
		return nil, fmt.Errorf("%w: %d responses present, need %d", ErrSubsetTooSmall, len(cols), c.S)
	}
	checks := len(cols) - c.S
	var best, failed []int
	found := false
	subset := make([]int, c.S)
	srcs := make([]field.Vec, c.S)
	var search func(start, depth int)
	search = func(start, depth int) {
		if found && len(best) == 0 {
			return // a window explains every present response
		}
		if depth == c.S {
			w, err := c.windowOf(subset)
			if err != nil {
				return // singular subset; skip
			}
			failed = c.failingChecks(failed[:0], w, srcs, results, present)
			if !found || len(failed) < len(best) {
				best = append(best[:0], failed...)
				found = true
			}
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
	if len(best) == 0 {
		return nil, nil
	}
	// The best window explains all but len(best) present equations. Those
	// are attributable culprits only if enough redundancy remains to have
	// cross-checked them.
	if len(best) > checks-1 {
		return nil, fmt.Errorf("%w: corruption detected but not attributable with %d present checks", ErrIntegrity, checks)
	}
	return best, nil
}
