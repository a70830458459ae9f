package field

import (
	"fmt"
	"math/rand"
)

// Mat is a dense row-major matrix over F_p. The masking coefficients
// A, B and Γ of DarKnight's coding scheme (paper §4) are all Mat values.
type Mat struct {
	Rows, Cols int
	Data       Vec // len Rows*Cols, row-major
}

// NewMat allocates a zero Rows×Cols matrix.
func NewMat(rows, cols int) *Mat {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("field: negative matrix dimension %dx%d", rows, cols))
	}
	return &Mat{Rows: rows, Cols: cols, Data: make(Vec, rows*cols)}
}

// Identity returns the n×n identity matrix.
func Identity(n int) *Mat {
	m := NewMat(n, n)
	for i := 0; i < n; i++ {
		m.Set(i, i, 1)
	}
	return m
}

// RandMat returns a matrix with i.i.d. uniform entries.
func RandMat(rng *rand.Rand, rows, cols int) *Mat {
	m := NewMat(rows, cols)
	for i := range m.Data {
		m.Data[i] = Rand(rng)
	}
	return m
}

// RandInvertible draws random n×n matrices until one is invertible and
// returns it together with its inverse. Over F_p with p ≈ 2^25 a uniform
// random matrix is singular with probability ≈ 1/p, so this loop virtually
// always succeeds on the first draw. DarKnight regenerates such an A for
// every virtual batch (§4.1: "dynamically generated for each virtual batch").
func RandInvertible(rng *rand.Rand, n int) (m, inv *Mat) {
	for {
		m = RandMat(rng, n, n)
		inv, err := m.Inverse()
		if err == nil {
			return m, inv
		}
	}
}

// At returns element (r, c).
func (m *Mat) At(r, c int) Elem { return m.Data[r*m.Cols+c] }

// Set stores v at element (r, c).
func (m *Mat) Set(r, c int, v Elem) { m.Data[r*m.Cols+c] = v }

// Row returns row r as a subslice (not a copy).
func (m *Mat) Row(r int) Vec { return m.Data[r*m.Cols : (r+1)*m.Cols] }

// Clone returns a deep copy of m.
func (m *Mat) Clone() *Mat {
	return &Mat{Rows: m.Rows, Cols: m.Cols, Data: m.Data.Clone()}
}

// Equal reports whether m and o have identical shape and entries.
//
//lint:ignore testonly test fixture for the field and masking tests
func (m *Mat) Equal(o *Mat) bool {
	return m.Rows == o.Rows && m.Cols == o.Cols && m.Data.Equal(o.Data)
}

// MatVec returns m·v (treating v as a column vector).
func MatVec(m *Mat, v Vec) Vec {
	if m.Cols != len(v) {
		panic(fmt.Sprintf("field: matvec shape mismatch %dx%d · %d",
			m.Rows, m.Cols, len(v)))
	}
	out := make(Vec, m.Rows)
	for r := 0; r < m.Rows; r++ {
		out[r] = Dot(m.Row(r), v)
	}
	return out
}

// Inverse returns m⁻¹ computed by Gauss-Jordan elimination over F_p, or
// ErrNotInvertible if m is singular or non-square.
func (m *Mat) Inverse() (*Mat, error) {
	if m.Rows != m.Cols {
		return nil, ErrNotInvertible
	}
	n := m.Rows
	a := m.Clone()
	inv := Identity(n)
	for col := 0; col < n; col++ {
		// Find a pivot.
		pivot := -1
		for r := col; r < n; r++ {
			if a.At(r, col) != 0 {
				pivot = r
				break
			}
		}
		if pivot < 0 {
			return nil, ErrNotInvertible
		}
		if pivot != col {
			swapRows(a, pivot, col)
			swapRows(inv, pivot, col)
		}
		// Normalize the pivot row.
		pinv := MustInv(a.At(col, col))
		scaleRow(a, col, pinv)
		scaleRow(inv, col, pinv)
		// Eliminate the column everywhere else.
		for r := 0; r < n; r++ {
			if r == col {
				continue
			}
			f := a.At(r, col)
			if f == 0 {
				continue
			}
			nf := Neg(f)
			AXPY(a.Row(r), nf, a.Row(col))
			AXPY(inv.Row(r), nf, inv.Row(col))
		}
	}
	return inv, nil
}

// Rank returns the rank of m over F_p, computed on a scratch copy.
// The privacy property tests use it to confirm that the noise block seen by
// colluding GPUs is always full rank (§5, "Colluding GPUs").
func (m *Mat) Rank() int { return m.Clone().RankInPlace() }

// RankInPlace returns the rank of m, reducing m to reduced row-echelon
// form in place.
func (m *Mat) RankInPlace() int {
	rank := 0
	for col := 0; col < m.Cols && rank < m.Rows; col++ {
		pivot := -1
		for r := rank; r < m.Rows; r++ {
			if m.At(r, col) != 0 {
				pivot = r
				break
			}
		}
		if pivot < 0 {
			continue
		}
		if pivot != rank {
			swapRows(m, pivot, rank)
		}
		pinv := MustInv(m.At(rank, col))
		scaleRow(m, rank, pinv)
		for r := 0; r < m.Rows; r++ {
			if r == rank {
				continue
			}
			if f := m.At(r, col); f != 0 {
				AXPY(m.Row(r), Neg(f), m.Row(rank))
			}
		}
		rank++
	}
	return rank
}

// SubMatrix returns the block [r0:r1) x [c0:c1) as a fresh matrix.
func (m *Mat) SubMatrix(r0, r1, c0, c1 int) *Mat {
	if r0 < 0 || r1 > m.Rows || c0 < 0 || c1 > m.Cols || r0 > r1 || c0 > c1 {
		panic(fmt.Sprintf("field: submatrix [%d:%d, %d:%d) out of %dx%d",
			r0, r1, c0, c1, m.Rows, m.Cols))
	}
	out := NewMat(r1-r0, c1-c0)
	for r := r0; r < r1; r++ {
		copy(out.Row(r-r0), m.Row(r)[c0:c1])
	}
	return out
}

// VStack returns the vertical concatenation [a; b].
func VStack(a, b *Mat) *Mat {
	if a.Cols != b.Cols {
		panic(fmt.Sprintf("field: vstack column mismatch %d != %d", a.Cols, b.Cols))
	}
	out := NewMat(a.Rows+b.Rows, a.Cols)
	copy(out.Data[:len(a.Data)], a.Data)
	copy(out.Data[len(a.Data):], b.Data)
	return out
}

// String renders small matrices for debugging and test failure messages.
func (m *Mat) String() string {
	s := fmt.Sprintf("Mat %dx%d", m.Rows, m.Cols)
	if m.Rows*m.Cols <= 64 {
		for r := 0; r < m.Rows; r++ {
			s += fmt.Sprintf("\n  %v", m.Row(r))
		}
	}
	return s
}

func swapRows(m *Mat, a, b int) {
	ra, rb := m.Row(a), m.Row(b)
	for i := range ra {
		ra[i], rb[i] = rb[i], ra[i]
	}
}

func scaleRow(m *Mat, r int, s Elem) {
	row := m.Row(r)
	for i := range row {
		row[i] = Mul(s, row[i])
	}
}
