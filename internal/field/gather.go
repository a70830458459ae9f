package field

import "fmt"

// This file implements the device-side linear kernel: an implicit GEMM in
// the manner of cuDNN's (Chetlur et al., 2014). A convolution is a matrix
// product whose right operand, the patch matrix, repeats every input
// element once per kernel tap. GatherMatMul never builds that matrix: it
// reads element (k, j) straight from the input at koff[k] + noff[j], and
// accumulates a 4×4 output tile with lazy reduction.

// GatherMatMul computes the m×n product
//
//	dst[i·n+j] = Σₖ a[i·K+k] · src[koff[k]+noff[j]] mod p,  K = len(koff), n = len(noff),
//
// of the row-major m×K matrix a with the K×n matrix gathered from src
// through the offset tables. Every koff[k]+noff[j] must index src.
//
// Output tiles are 4 rows × 4 columns, with 2- and 1-row tiles for the
// rows left over; the last column block is clamped to the last column (its
// surplus columns are computed and dropped), so every tile gathers four
// elements per term. The term loop is cut into chunks of MaxLazyTerms,
// and the tile is reduced at each chunk boundary, so no accumulator holds
// more than MaxLazyTerms products on top of a reduced carry.
//
//darknight:hotpath
func GatherMatMul(dst, a Vec, m int, src Vec, koff, noff []int) {
	kn, n := len(koff), len(noff)
	if len(a) != m*kn || len(dst) != m*n {
		//lint:ignore hotpathalloc cold error path: a shape mismatch is a programming error
		panic(fmt.Sprintf("field: gather matmul of %d×%d by %d×%d has %d coefficients and %d outputs",
			m, kn, kn, n, len(a), len(dst)))
	}
	var c [16]uint64 // the tile: row r, column t at c[4r+t]
	for i := 0; i < m; {
		h := min(4, m-i)
		if h == 3 {
			h = 2
		}
		ai, di := a[i*kn:(i+h)*kn], dst[i*n:(i+h)*n]
		for j := 0; j < n; j += 4 {
			last := n - 1
			n0, n1, n2, n3 := noff[j], noff[min(j+1, last)], noff[min(j+2, last)], noff[min(j+3, last)]
			c = [16]uint64{}
			for lo := 0; lo < kn; lo += MaxLazyTerms {
				hi := min(lo+MaxLazyTerms, kn)
				if lo > 0 {
					ReduceAcc(c[:4*h])
				}
				ks := koff[lo:hi]
				switch h {
				case 4:
					tile4(&c, ks, ai[lo:hi], ai[kn+lo:kn+hi], ai[2*kn+lo:2*kn+hi], ai[3*kn+lo:3*kn+hi], src, n0, n1, n2, n3)
				case 2:
					tile2(&c, ks, ai[lo:hi], ai[kn+lo:kn+hi], src, n0, n1, n2, n3)
				default:
					tile1(&c, ks, ai[lo:hi], src, n0, n1, n2, n3)
				}
			}
			w := min(4, n-j)
			for r := 0; r < h; r++ {
				row := di[r*n+j : r*n+j+w]
				for t := range row {
					row[t] = Elem(c[4*r+t] % uint64(P))
				}
			}
		}
		i += h
	}
}

// tile4 adds one chunk of terms to a 4×4 tile: rows a0…a3 against the
// columns gathered at n0…n3. The tile stays in memory: Go's register
// allocator cannot hold 16 accumulators, and adding to memory beats the
// spills it would make instead.
func tile4(c *[16]uint64, ks []int, a0, a1, a2, a3, src Vec, n0, n1, n2, n3 int) {
	a0, a1, a2, a3 = a0[:len(ks)], a1[:len(ks)], a2[:len(ks)], a3[:len(ks)]
	for t, b := range ks {
		x0, x1, x2, x3 := uint64(src[b+n0]), uint64(src[b+n1]), uint64(src[b+n2]), uint64(src[b+n3])
		u := uint64(a0[t])
		c[0] += u * x0
		c[1] += u * x1
		c[2] += u * x2
		c[3] += u * x3
		u = uint64(a1[t])
		c[4] += u * x0
		c[5] += u * x1
		c[6] += u * x2
		c[7] += u * x3
		u = uint64(a2[t])
		c[8] += u * x0
		c[9] += u * x1
		c[10] += u * x2
		c[11] += u * x3
		u = uint64(a3[t])
		c[12] += u * x0
		c[13] += u * x1
		c[14] += u * x2
		c[15] += u * x3
	}
}

// tile2 is tile4 for a 2×4 tile (c[0:8]).
func tile2(c *[16]uint64, ks []int, a0, a1, src Vec, n0, n1, n2, n3 int) {
	a0, a1 = a0[:len(ks)], a1[:len(ks)]
	for t, b := range ks {
		x0, x1, x2, x3 := uint64(src[b+n0]), uint64(src[b+n1]), uint64(src[b+n2]), uint64(src[b+n3])
		u := uint64(a0[t])
		c[0] += u * x0
		c[1] += u * x1
		c[2] += u * x2
		c[3] += u * x3
		u = uint64(a1[t])
		c[4] += u * x0
		c[5] += u * x1
		c[6] += u * x2
		c[7] += u * x3
	}
}

// tile1 is tile4 for a 1×4 tile (c[0:4]).
func tile1(c *[16]uint64, ks []int, a0, src Vec, n0, n1, n2, n3 int) {
	a0 = a0[:len(ks)]
	for t, b := range ks {
		u := uint64(a0[t])
		c[0] += u * uint64(src[b+n0])
		c[1] += u * uint64(src[b+n1])
		c[2] += u * uint64(src[b+n2])
		c[3] += u * uint64(src[b+n3])
	}
}
