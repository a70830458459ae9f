package field

import (
	"math/rand"
	"testing"
)

// matMul returns a·b over F_p.
func matMul(a, b *Mat) *Mat {
	out := NewMat(a.Rows, b.Cols)
	for i := 0; i < a.Rows; i++ {
		for k := 0; k < a.Cols; k++ {
			AXPY(out.Row(i), a.At(i, k), b.Row(k))
		}
	}
	return out
}

// transpose returns mᵀ.
func transpose(m *Mat) *Mat {
	t := NewMat(m.Cols, m.Rows)
	for r := 0; r < m.Rows; r++ {
		for c := 0; c < m.Cols; c++ {
			t.Set(c, r, m.At(r, c))
		}
	}
	return t
}

func TestIdentity(t *testing.T) {
	id := Identity(4)
	m := RandMat(rand.New(rand.NewSource(1)), 4, 4)
	if !matMul(id, m).Equal(m) || !matMul(m, id).Equal(m) {
		t.Fatal("identity is not an identity under MatMul")
	}
}

func TestInverse(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for n := 1; n <= 12; n++ {
		m, inv := RandInvertible(rng, n)
		if !matMul(m, inv).Equal(Identity(n)) {
			t.Fatalf("n=%d: m·m⁻¹ != I", n)
		}
		if !matMul(inv, m).Equal(Identity(n)) {
			t.Fatalf("n=%d: m⁻¹·m != I", n)
		}
	}
}

func TestInverseSingular(t *testing.T) {
	m := NewMat(3, 3) // all zeros
	if _, err := m.Inverse(); err != ErrNotInvertible {
		t.Fatalf("singular inverse err = %v", err)
	}
	// Duplicate rows.
	m = NewMat(2, 2)
	m.Set(0, 0, 3)
	m.Set(0, 1, 5)
	m.Set(1, 0, 3)
	m.Set(1, 1, 5)
	if _, err := m.Inverse(); err != ErrNotInvertible {
		t.Fatalf("rank-1 inverse err = %v", err)
	}
	// Non-square.
	if _, err := NewMat(2, 3).Inverse(); err != ErrNotInvertible {
		t.Fatal("non-square inverse should fail")
	}
}

func TestTranspose(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	m := RandMat(rng, 3, 5)
	tt := transpose(transpose(m))
	if !tt.Equal(m) {
		t.Fatal("double transpose != original")
	}
	// (AB)ᵀ = BᵀAᵀ — the identity the decode correctness proof (§4.3) uses.
	a := RandMat(rng, 3, 4)
	b := RandMat(rng, 4, 2)
	left := transpose(matMul(a, b))
	right := matMul(transpose(b), transpose(a))
	if !left.Equal(right) {
		t.Fatal("(AB)ᵀ != BᵀAᵀ")
	}
}

func TestMatVecAgainstMatMul(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	m := RandMat(rng, 6, 4)
	v := RandVec(rng, 4)
	got := MatVec(m, v)
	// Compare against the matrix route.
	col := NewMat(4, 1)
	copy(col.Data, v)
	want := matMul(m, col)
	for i := range got {
		if got[i] != want.At(i, 0) {
			t.Fatalf("row %d: %d != %d", i, got[i], want.At(i, 0))
		}
	}
}

func TestRank(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	m, _ := RandInvertible(rng, 6)
	if r := m.Rank(); r != 6 {
		t.Fatalf("invertible 6x6 rank = %d", r)
	}
	if r := NewMat(4, 7).Rank(); r != 0 {
		t.Fatalf("zero matrix rank = %d", r)
	}
	// Build a rank-2 matrix: two random rows repeated.
	r2 := NewMat(4, 5)
	row1 := RandVec(rng, 5)
	row2 := RandVec(rng, 5)
	copy(r2.Row(0), row1)
	copy(r2.Row(1), row2)
	copy(r2.Row(2), AddVec(row1, row2))
	copy(r2.Row(3), ScaleVec(7, row1))
	if r := r2.Rank(); r != 2 {
		t.Fatalf("constructed rank-2 matrix rank = %d", r)
	}
	// Any M rows of an invertible matrix are full rank — the condition the
	// collusion-tolerance proof requires of A2 (§5).
	for m0 := 1; m0 <= 5; m0++ {
		sub := m.SubMatrix(0, m0, 0, 6)
		if r := sub.Rank(); r != m0 {
			t.Fatalf("submatrix of invertible has rank %d, want %d", r, m0)
		}
	}
}

func TestSubMatrixVStack(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	m := RandMat(rng, 5, 4)
	top := m.SubMatrix(0, 2, 0, 4)
	bot := m.SubMatrix(2, 5, 0, 4)
	if !VStack(top, bot).Equal(m) {
		t.Fatal("vstack(top, bottom) != original")
	}
}

// randDiagonalInvertible returns a diagonal matrix with uniformly random
// non-zero diagonal entries (the Γ of Eq (5)) and its inverse.
func randDiagonalInvertible(rng *rand.Rand, n int) (m, inv *Mat) {
	m = NewMat(n, n)
	inv = NewMat(n, n)
	for i := 0; i < n; i++ {
		d := RandNonZero(rng)
		m.Set(i, i, d)
		inv.Set(i, i, MustInv(d))
	}
	return m, inv
}

func TestRandDiagonalInvertible(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	d, dinv := randDiagonalInvertible(rng, 5)
	if !matMul(d, dinv).Equal(Identity(5)) {
		t.Fatal("Γ·Γ⁻¹ != I")
	}
	for r := 0; r < 5; r++ {
		for c := 0; c < 5; c++ {
			if r != c && d.At(r, c) != 0 {
				t.Fatal("off-diagonal entry non-zero")
			}
		}
	}
}

func TestDotLazyReduction(t *testing.T) {
	// Exercise the periodic-reduction path with a long max-value vector.
	n := 3*4096 + 17
	a := make(Vec, n)
	b := make(Vec, n)
	for i := range a {
		a[i] = P - 1
		b[i] = P - 1
	}
	// (p-1)^2 ≡ 1 mod p, so the dot product is n mod p.
	want := Elem(n % int(P))
	if got := Dot(a, b); got != want {
		t.Fatalf("Dot = %d, want %d", got, want)
	}
}

func TestVecOps(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	a := RandVec(rng, 100)
	b := RandVec(rng, 100)
	if !SubVec(AddVec(a, b), b).Equal(a) {
		t.Fatal("(a+b)-b != a")
	}
	s := RandNonZero(rng)
	scaled := ScaleVec(s, a)
	back := ScaleVec(MustInv(s), scaled)
	if !back.Equal(a) {
		t.Fatal("s⁻¹·(s·a) != a")
	}
	dst := b.Clone()
	AXPY(dst, s, a)
	if !dst.Equal(AddVec(b, ScaleVec(s, a))) {
		t.Fatal("AXPY mismatch")
	}
}

func TestLiftVecRoundTrip(t *testing.T) {
	xs := []int64{0, 1, -1, 1000, -1000, 123456, -123456}
	for i, x := range xs {
		if got := Lift(FromInt64(x)); got != x {
			t.Fatalf("index %d: %d != %d", i, got, x)
		}
	}
}

func TestMatrixInverseOfProduct(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	a, ainv := RandInvertible(rng, 5)
	b, binv := RandInvertible(rng, 5)
	left, err := matMul(a, b).Inverse()
	if err != nil {
		t.Fatal(err)
	}
	if !left.Equal(matMul(binv, ainv)) {
		t.Fatal("(AB)⁻¹ != B⁻¹A⁻¹")
	}
}
