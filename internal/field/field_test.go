package field

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// reduce maps an arbitrary uint64 into [0, P).
func reduce(v uint64) Elem {
	return Elem(v % uint64(P))
}

func TestPIsPrime(t *testing.T) {
	// Trial division is fast enough for a 25-bit modulus and anchors the
	// privacy argument: F_p must actually be a field.
	n := uint64(P)
	if n < 2 {
		t.Fatal("P < 2")
	}
	for d := uint64(2); d*d <= n; d++ {
		if n%d == 0 {
			t.Fatalf("P = %d is divisible by %d", n, d)
		}
	}
}

func TestPValue(t *testing.T) {
	if P != 33554393 {
		t.Fatalf("P = %d, want 2^25-39 = 33554393", P)
	}
}

func TestAddSubRoundTrip(t *testing.T) {
	f := func(a, b uint32) bool {
		x, y := reduce(uint64(a)), reduce(uint64(b))
		return Sub(Add(x, y), y) == x && Add(Sub(x, y), y) == x
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestNeg(t *testing.T) {
	f := func(a uint32) bool {
		x := reduce(uint64(a))
		return Add(x, Neg(x)) == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMulCommutativeAssociative(t *testing.T) {
	f := func(a, b, c uint32) bool {
		x, y, z := reduce(uint64(a)), reduce(uint64(b)), reduce(uint64(c))
		return Mul(x, y) == Mul(y, x) && Mul(Mul(x, y), z) == Mul(x, Mul(y, z))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDistributive(t *testing.T) {
	f := func(a, b, c uint32) bool {
		x, y, z := reduce(uint64(a)), reduce(uint64(b)), reduce(uint64(c))
		return Mul(x, Add(y, z)) == Add(Mul(x, y), Mul(x, z))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestInv(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 1000; i++ {
		x := RandNonZero(rng)
		inv, err := Inv(x)
		if err != nil {
			t.Fatalf("Inv(%d): %v", x, err)
		}
		if Mul(x, inv) != 1 {
			t.Fatalf("x*Inv(x) = %d for x=%d", Mul(x, inv), x)
		}
	}
	if _, err := Inv(0); err != ErrNotInvertible {
		t.Fatalf("Inv(0) err = %v, want ErrNotInvertible", err)
	}
}

func TestMulAdd(t *testing.T) {
	f := func(acc, a, b uint32) bool {
		x, y, z := reduce(uint64(acc)), reduce(uint64(a)), reduce(uint64(b))
		return MulAdd(x, y, z) == Add(x, Mul(y, z))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPow(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 100; i++ {
		x := RandNonZero(rng)
		// Fermat's little theorem: x^(p-1) = 1.
		if got := Pow(x, uint64(P-1)); got != 1 {
			t.Fatalf("x^(p-1) = %d for x=%d, want 1", got, x)
		}
	}
	if Pow(0, 0) != 1 {
		t.Fatal("0^0 should be 1 by convention")
	}
	if Pow(5, 1) != 5 {
		t.Fatal("x^1 != x")
	}
}

func TestFromInt64Lift(t *testing.T) {
	cases := []int64{0, 1, -1, 42, -42, int64(Half), -int64(Half)}
	for _, c := range cases {
		if got := Lift(FromInt64(c)); got != c {
			t.Errorf("Lift(FromInt64(%d)) = %d", c, got)
		}
	}
	f := func(v int32) bool {
		x := int64(v) % int64(Half)
		return Lift(FromInt64(x)) == x
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRandUniformity(t *testing.T) {
	// Coarse bucket χ²-style check: 2^25 values into 16 buckets.
	rng := rand.New(rand.NewSource(3))
	const n = 160000
	const buckets = 16
	counts := make([]int, buckets)
	for i := 0; i < n; i++ {
		counts[int(uint64(Rand(rng))*buckets/uint64(P))]++
	}
	want := float64(n) / buckets
	for b, c := range counts {
		dev := float64(c) - want
		if dev < 0 {
			dev = -dev
		}
		if dev > want*0.05 { // 5% tolerance, generous for n=160k
			t.Fatalf("bucket %d count %d deviates >5%% from %v", b, c, want)
		}
	}
}

func TestRandNonZero(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 10000; i++ {
		if RandNonZero(rng) == 0 {
			t.Fatal("RandNonZero returned 0")
		}
	}
}

func TestPowExponentAddition(t *testing.T) {
	// x^(a+b) == x^a · x^b — the group law Fermat-based inversion rests on.
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 200; i++ {
		x := RandNonZero(rng)
		a := uint64(rng.Intn(1 << 20))
		b := uint64(rng.Intn(1 << 20))
		if Pow(x, a+b) != Mul(Pow(x, a), Pow(x, b)) {
			t.Fatalf("group law violated for x=%d a=%d b=%d", x, a, b)
		}
	}
}

func TestInverseOfProduct(t *testing.T) {
	// (ab)⁻¹ == b⁻¹a⁻¹ (scalars commute, but the identity is the one the
	// matrix decode relies on in block form).
	rng := rand.New(rand.NewSource(12))
	for i := 0; i < 200; i++ {
		a, b := RandNonZero(rng), RandNonZero(rng)
		if MustInv(Mul(a, b)) != Mul(MustInv(b), MustInv(a)) {
			t.Fatal("(ab)⁻¹ != b⁻¹a⁻¹")
		}
	}
}
