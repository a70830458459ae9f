package masking

import (
	"fmt"

	"darknight/internal/field"
)

// This file extends the response-subset decode path to the Eq (4) backward
// coding. Unlike the forward code — MDS over its coded columns, decodable
// from ANY S of the S+E responses — a backward equation bakes its δ
// combination coefficients into the job the GPU ran, so arbitrary column
// subsets cannot be re-decoded after the fact. What the code does offer is
// TWO complete decodings of the same batch gradient: the primary one over
// coded inputs [0, S) with the published B rows, and the redundant one over
// coded inputs [E, S+E) with the SecondaryB rows (the §4.4 redundancy,
// normally spent on verification). A straggler-tolerant backward dispatch
// therefore issues both equation sets and decodes from whichever window
// completes first; stragglers among the E window-exclusive slots on either
// side are tolerated, and when both windows happen to complete the spare
// one is spent as the verification it always was.

// ErrBackwardSubset is returned when neither backward decode window is
// fully present.
var ErrBackwardSubset = fmt.Errorf("%w: no complete backward decode window present", ErrWrongCount)

// DecodeBackwardSubsetInto folds the present backward equations into the
// caller-owned batch gradient dst. prim holds the S primary equations
// (coded inputs [0, S), published-B combinations) and sec the S secondary
// equations (coded inputs [E, S+E), SecondaryB combinations); present masks
// say which actually arrived, and a nil mask means every equation of its
// window did. The primary window is preferred when complete — making the
// result bit-for-bit DecodeBackwardInto's — and the secondary window is
// used otherwise; because both decodings recover the exact field value
// Σᵢ g(δᵢ, xᵢ) (Eq 5/6 hold for each), the two paths agree bit-for-bit on
// honest equations. When both windows are complete the spare one is checked
// against the decode, without decoding it, and a mismatch returns
// ErrIntegrity.
//
// A nil sec is the single-window path: DecodeBackwardInto on prim, behind a
// present-check. A code without redundancy (E = 0) has no secondary
// decoding, and sec is ignored. After the first call the decode allocates
// nothing.
func (c *Code) DecodeBackwardSubsetInto(dst field.Vec, prim, sec []field.Vec, primPresent, secPresent []bool) error {
	primOK, err := c.windowComplete(prim, primPresent, len(dst))
	if err != nil {
		return err
	}
	secOK := false
	if c.E > 0 && sec != nil {
		secOK, err = c.windowComplete(sec, secPresent, len(dst))
		if err != nil {
			return err
		}
	}
	switch {
	case primOK:
		field.Combine(dst, c.Gamma[:c.S], prim[:c.S])
		if secOK && !field.CombineEqual(dst, c.gammaSec[:c.S], sec[:c.S]) {
			return fmt.Errorf("%w: backward gradient decodes inconsistently across windows", ErrIntegrity)
		}
		return nil
	case secOK:
		// Exact over F_p: Σⱼ γˢⱼ·secⱼ = Σᵢ g(δᵢ, xᵢ) = the primary decode,
		// bit-for-bit (pinned by TestDecodeBackwardSubsetMatchesFull).
		field.Combine(dst, c.gammaSec[:c.S], sec[:c.S])
		return nil
	default:
		return ErrBackwardSubset
	}
}

// windowComplete validates one backward equation window and reports whether
// all S of its equations are present (present == nil: all of them).
func (c *Code) windowComplete(eqs []field.Vec, present []bool, n int) (bool, error) {
	if len(eqs) < c.S || (present != nil && len(present) < c.S) {
		return false, fmt.Errorf("%w: got %d equations / %d mask entries, window has %d",
			ErrWrongCount, len(eqs), len(present), c.S)
	}
	for j := 0; j < c.S; j++ {
		if present != nil && !present[j] {
			return false, nil
		}
		if len(eqs[j]) != n {
			return false, ErrShapeMismatch
		}
	}
	return true, nil
}
