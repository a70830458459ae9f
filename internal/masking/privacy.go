package masking

import (
	"fmt"
	"sort"

	"darknight/internal/field"
)

// CoalitionView is what a set of colluding GPUs jointly observes about the
// code: the columns of A for the coded inputs they hold. Splitting it into
// the input block (A1, rows 0..K) and the noise block (A2, rows K..S)
// exposes the structure the §5 privacy argument is about.
type CoalitionView struct {
	GPUs       []int
	InputBlock *field.Mat // K×|I| — coefficients multiplying private inputs
	NoiseBlock *field.Mat // M×|I| — coefficients multiplying noise vectors
}

// View assembles the coalition view for the given coded-input indices.
func (c *Code) View(gpus []int) (*CoalitionView, error) {
	sorted := append([]int(nil), gpus...)
	sort.Ints(sorted)
	for i, g := range sorted {
		if g < 0 || g >= c.NumCoded() {
			return nil, fmt.Errorf("masking: GPU index %d outside [0,%d)", g, c.NumCoded())
		}
		if i > 0 && sorted[i-1] == g {
			return nil, fmt.Errorf("masking: duplicate GPU index %d", g)
		}
	}
	in := field.NewMat(c.K, len(sorted))
	noise := field.NewMat(c.M, len(sorted))
	for col, g := range sorted {
		for r := 0; r < c.K; r++ {
			in.Set(r, col, c.A.At(r, g))
		}
		for r := 0; r < c.M; r++ {
			noise.Set(r, col, c.A.At(c.K+r, g))
		}
	}
	return &CoalitionView{GPUs: sorted, InputBlock: in, NoiseBlock: noise}, nil
}

// Leaks reports whether the coalition can form any linear combination of
// its coded inputs that cancels every noise vector while retaining a
// non-zero input component — the only way matrix masking can leak.
//
// A combination v satisfies: Σ v_j·x̄_j = X·(A1_I·v) + R·(A2_I·v). The noise
// vanishes iff v ∈ ker(A2_I); information leaks iff some such v has
// A1_I·v ≠ 0, which happens iff rank([A1_I; A2_I]) > rank(A2_I). With
// |I| <= M and a full-rank noise block, ker(A2_I) = {0} and the view is
// one-time-pad uniform (paper Lemma 1 + §5 "Colluding GPUs").
func (v *CoalitionView) Leaks() bool {
	return leaks(field.VStack(v.InputBlock, v.NoiseBlock), v.NoiseBlock.Clone())
}

// leaks is Leaks' criterion on a coalition's stacked view [A1_I; A2_I] and
// noise block A2_I, both of which it reduces in place.
func leaks(stacked, noise *field.Mat) bool {
	return stacked.RankInPlace() > noise.RankInPlace()
}

// NoiseRank returns the rank of the coalition's noise block A2_I. Privacy
// requires it to equal the coalition size for all coalitions of size <= M.
func (v *CoalitionView) NoiseRank() int { return v.NoiseBlock.Rank() }

// MaxSafeCoalition empirically determines the largest coalition size t such
// that *every* size-t coalition of this code's coded inputs is leak-free.
// For a well-formed code this equals M.
func (c *Code) MaxSafeCoalition() int {
	total := c.NumCoded()
	for size := 1; size <= total; size++ {
		if c.anyLeakOfSize(size) {
			return size - 1
		}
	}
	return total
}
