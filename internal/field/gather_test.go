package field

import (
	"math/rand"
	"testing"
)

// gatherOracle is GatherMatMul with one MulAdd, a full reduction, per term.
func gatherOracle(a Vec, m int, src Vec, koff, noff []int) Vec {
	out := NewVec(m * len(noff))
	for i := 0; i < m; i++ {
		for j, nj := range noff {
			for k, kk := range koff {
				out[i*len(noff)+j] = MulAdd(out[i*len(noff)+j], a[i*len(koff)+k], src[kk+nj])
			}
		}
	}
	return out
}

// randOffsets draws n offsets in [0, span).
func randOffsets(rng *rand.Rand, n, span int) []int {
	off := make([]int, n)
	for i := range off {
		off[i] = rng.Intn(span)
	}
	return off
}

// TestGatherMatMulMatchesOracle crosses every row count through the 4-, 2-
// and 1-row tiles with column counts on and off the 4-column blocks, over
// arbitrary (repeating, unordered) offsets.
func TestGatherMatMulMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	src := RandVec(rng, 97)
	for m := 0; m <= 9; m++ {
		for n := 0; n <= 9; n++ {
			for _, kn := range []int{0, 1, 5, 33} {
				koff, noff := randOffsets(rng, kn, 48), randOffsets(rng, n, 49)
				a := RandVec(rng, m*kn)
				got := RandVec(rng, m*n) // every element must be overwritten
				GatherMatMul(got, a, m, src, koff, noff)
				if !got.Equal(gatherOracle(a, m, src, koff, noff)) {
					t.Fatalf("GatherMatMul(m=%d, K=%d, n=%d) diverges from the MulAdd oracle", m, kn, n)
				}
			}
		}
	}
}
