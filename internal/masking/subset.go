package masking

import (
	"fmt"
	"slices"

	"darknight/internal/field"
)

// This file holds the verified forward decode behind both the full-gang
// and the straggler path: the code is MDS over its coded columns — the K
// forward results are decodable from ANY S = K+M of the S+E coded
// responses, not just the primary window — so a dispatch does not have to
// wait for its slowest device. The fleet layer returns early with a
// presence mask and the decoder works from whatever arrived, spending every
// present column beyond the first S as a redundant integrity check.

// ErrSubsetTooSmall is returned when fewer than S coded results are present.
var ErrSubsetTooSmall = fmt.Errorf("%w: fewer than S responses present", ErrWrongCount)

// window is one S-column decode window of the code: its columns, the
// inverse of A restricted to them, and one parity row per column outside
// it. Honest results are Ȳ = F·A on every column, so for a column j outside
// the window
//
//	ȳ_j = Σ_m A[m,j]·f_m = Σᵢ cⱼᵢ·ȳ_{wᵢ},   cⱼ = A_w⁻¹·A[:,j]
//
// — an equation over the window's results alone, checked without decoding
// a single image.
type window struct {
	cols   []int      // the S decode columns, in decode order
	inv    *field.Mat // A restricted to cols, inverted
	checks []int      // the E columns outside the window, ascending
	parity *field.Mat // E×S: row e is c_{checks[e]}
}

// newWindow builds the window over cols from the inverse of A restricted
// to them, deriving the parity row of every column outside it.
func (c *Code) newWindow(cols []int, inv *field.Mat) *window {
	w := &window{cols: cols, inv: inv, checks: make([]int, 0, c.E), parity: field.NewMat(c.E, c.S)}
	for j := 0; j < c.NumCoded(); j++ {
		if !slices.Contains(cols, j) {
			w.checks = append(w.checks, j)
		}
	}
	for e, j := range w.checks {
		row := w.parity.Row(e)
		for i := range row {
			var acc field.Elem
			for m := 0; m < c.S; m++ {
				acc = field.MulAdd(acc, inv.At(i, m), c.A.At(m, j))
			}
			row[i] = acc
		}
	}
	return w
}

// windowOf returns the decode window over cols — the primary one, or a
// straggler window built on first use and cached for the code's lifetime —
// or an error if A restricted to cols is singular.
func (c *Code) windowOf(cols []int) (*window, error) {
	if slices.Equal(cols, c.primary.cols) {
		return c.primary, nil
	}
	for _, w := range c.windows {
		if slices.Equal(cols, w.cols) {
			return w, nil
		}
	}
	inv, err := c.subsetInverse(cols)
	if err != nil {
		return nil, err
	}
	w := c.newWindow(slices.Clone(cols), inv)
	c.windows = append(c.windows, w)
	return w, nil
}

// seq returns [0, 1, …, n-1].
func seq(n int) []int {
	s := make([]int, n)
	for i := range s {
		s[i] = i
	}
	return s
}

// DecodeForwardSubsetInto is the verified forward decode: it checks the
// present coded responses against each other and decodes the K forward
// results into the caller-owned dst vectors, each of which is overwritten.
// present[j] reports whether response j arrived; present == nil means every
// response did.
//
// results must have NumCoded entries, of which only the present ones are
// read; at least S must be present. The K results are decoded once, from
// the first S present responses (the primary window when all arrived).
// Every other present response j is one parity check
// ȳ_j − Σᵢ cⱼᵢ·ȳ_{wᵢ} = 0 over that window (the §4.4 redundant equation
// generalised to arbitrary subsets); a failed check returns ErrIntegrity
// and leaves dst unspecified. Passing every check means the present
// responses are Ȳ = F·A for one F, so every S-subset of them decodes alike —
// the check is at least as strong as decoding from two windows and
// comparing. Exactly S present decodes unverified.
//
// Because decoding is exact linear algebra over F_p, the output is
// bit-for-bit identical to DecodeForwardInto on the full response set — the
// straggler path costs no accuracy. After a window's first use the call
// allocates nothing.
func (c *Code) DecodeForwardSubsetInto(dst []field.Vec, results []field.Vec, present []bool) error {
	if len(results) < c.NumCoded() || (present != nil && len(present) != len(results)) {
		return fmt.Errorf("%w: got %d results / %d mask entries, code has %d columns",
			ErrWrongCount, len(results), len(present), c.NumCoded())
	}
	results = results[:c.NumCoded()]
	if present != nil {
		present = present[:c.NumCoded()]
	}
	if cap(c.cols) < c.NumCoded() {
		c.cols = make([]int, 0, c.NumCoded())
	}
	cols := c.cols[:0]
	for j := range results {
		if present == nil || present[j] {
			cols = append(cols, j)
		}
	}
	if len(cols) < c.S {
		return fmt.Errorf("%w: %d of %d responses present, need %d", ErrSubsetTooSmall, len(cols), c.NumCoded(), c.S)
	}
	if err := c.checkDecode(dst, results, present, len(results[cols[0]])); err != nil {
		return err
	}
	w, err := c.presentWindow(cols)
	if err != nil {
		return err
	}
	srcs, _ := c.gatherScratch(c.S)
	for i, j := range w.cols {
		srcs[i] = results[j]
	}
	if err := c.checkParity(w, srcs, results, present); err != nil {
		return err
	}
	c.decodeWindowInto(dst, srcs, w.inv)
	return nil
}

// presentWindow returns an invertible decode window among the present
// columns: the first S of them. By construction a singular S-subset is
// astronomically rare, but if the leading one is, each trailing present
// column is rotated into each slot until an invertible window appears.
func (c *Code) presentWindow(cols []int) (*window, error) {
	w, err := c.windowOf(cols[:c.S])
	if err == nil {
		return w, nil
	}
	base := slices.Clone(cols[:c.S])
	for _, alt := range cols[c.S:] {
		for slot := range base {
			saved := base[slot]
			base[slot] = alt
			if w, err2 := c.windowOf(base); err2 == nil {
				return w, nil
			}
			base[slot] = saved
		}
	}
	return nil, fmt.Errorf("masking: no invertible decode subset among present responses: %w", err)
}

// checkParity runs the parity check of every present column outside w
// (present == nil: all of them) against the window's results srcs.
func (c *Code) checkParity(w *window, srcs, results []field.Vec, present []bool) error {
	for e, j := range w.checks {
		if present != nil && !present[j] {
			continue
		}
		if !field.CombineEqual(results[j], w.parity.Row(e), srcs) {
			return fmt.Errorf("%w: response %d fails its parity check", ErrIntegrity, j)
		}
	}
	return nil
}

// failingChecks gathers the window's results into srcs and appends to dst
// every present column outside w (present == nil: all of them) that fails
// its parity row — the audit's count, where checkParity stops at the first.
func (c *Code) failingChecks(dst []int, w *window, srcs, results []field.Vec, present []bool) []int {
	for i, j := range w.cols {
		srcs[i] = results[j]
	}
	for e, j := range w.checks {
		if (present == nil || present[j]) && !field.CombineEqual(results[j], w.parity.Row(e), srcs) {
			dst = append(dst, j)
		}
	}
	return dst
}
