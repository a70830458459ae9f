package field

import (
	"math/rand"
	"testing"

	"darknight/internal/par"
)

// combineOracle is the naive per-term AXPY combination the lazy kernel
// must match bit-for-bit.
func combineOracle(coeffs []Elem, srcs []Vec) Vec {
	out := NewVec(len(srcs[0]))
	for j, c := range coeffs {
		if c != 0 {
			AXPY(out, c, srcs[j])
		}
	}
	return out
}

func randSrcs(rng *rand.Rand, k, n int) ([]Elem, []Vec) {
	coeffs := make([]Elem, k)
	srcs := make([]Vec, k)
	for j := range srcs {
		coeffs[j] = Rand(rng)
		srcs[j] = RandVec(rng, n)
	}
	return coeffs, srcs
}

func TestCombineMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for _, tc := range []struct{ k, n int }{
		{1, 1}, {3, 17}, {7, 1000}, {5, combineBlock}, {4, combineBlock + 3}, {6, 3*combineBlock + 511},
	} {
		coeffs, srcs := randSrcs(rng, tc.k, tc.n)
		coeffs[0] = 0 // exercise the zero-coefficient skip
		want := combineOracle(coeffs, srcs)
		got := NewVec(tc.n)
		Combine(got, coeffs, srcs)
		if !got.Equal(want) {
			t.Fatalf("Combine(k=%d, n=%d) diverges from AXPY oracle", tc.k, tc.n)
		}
	}
}

// TestCombineParallelMatchesSerial pins parallel-vs-serial equivalence: the
// fan-out across column blocks must be bit-identical to the single-worker
// path even on a single-core machine (forced width).
func TestCombineParallelMatchesSerial(t *testing.T) {
	defer par.SetMaxWorkers(par.SetMaxWorkers(4))
	rng := rand.New(rand.NewSource(22))
	n := combineParGrain*2 + 37 // large enough to actually split
	coeffs, srcs := randSrcs(rng, 6, n)
	parallel := NewVec(n)
	Combine(parallel, coeffs, srcs)

	par.SetMaxWorkers(1)
	serial := NewVec(n)
	Combine(serial, coeffs, srcs)

	if !parallel.Equal(serial) {
		t.Fatal("parallel Combine diverges from serial Combine")
	}
	if !parallel.Equal(combineOracle(coeffs, srcs)) {
		t.Fatal("parallel Combine diverges from AXPY oracle")
	}
}

// TestCombine2MatchesCombine pins the paired-row kernel bit-for-bit to two
// independent Combine calls (and, transitively, the AXPY oracle), across
// block boundaries, zero coefficients — including rows zero on only one
// side of a pair — and the parallel split.
func TestCombine2MatchesCombine(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	for _, tc := range []struct{ k, n int }{
		{1, 1}, {3, 17}, {7, 1000}, {5, combineBlock}, {4, combineSpan + 3}, {6, 3*combineBlock + 511},
	} {
		c0, srcs := randSrcs(rng, tc.k, tc.n)
		c1 := make([]Elem, tc.k)
		for j := range c1 {
			c1[j] = Rand(rng)
		}
		c0[0] = 0 // zero on one side of the pair only
		if tc.k > 1 {
			c0[1], c1[1] = 0, 0 // zero on both sides: the skip path
		}
		want0, want1 := NewVec(tc.n), NewVec(tc.n)
		Combine(want0, c0, srcs)
		Combine(want1, c1, srcs)
		got0, got1 := NewVec(tc.n), NewVec(tc.n)
		Combine2(got0, got1, c0, c1, srcs)
		if !got0.Equal(want0) || !got1.Equal(want1) {
			t.Fatalf("Combine2(k=%d, n=%d) diverges from Combine", tc.k, tc.n)
		}
	}
}

func TestCombine2ParallelMatchesSerial(t *testing.T) {
	defer par.SetMaxWorkers(par.SetMaxWorkers(4))
	rng := rand.New(rand.NewSource(27))
	n := combineParGrain*2 + 37
	c0, srcs := randSrcs(rng, 6, n)
	c1 := make([]Elem, 6)
	for j := range c1 {
		c1[j] = Rand(rng)
	}
	p0, p1 := NewVec(n), NewVec(n)
	Combine2(p0, p1, c0, c1, srcs)

	par.SetMaxWorkers(1)
	s0, s1 := NewVec(n), NewVec(n)
	Combine2(s0, s1, c0, c1, srcs)

	if !p0.Equal(s0) || !p1.Equal(s1) {
		t.Fatal("parallel Combine2 diverges from serial Combine2")
	}
}

// TestCombineEqualMatchesCombine pins the comparing kernel to Combine: it
// accepts Combine's own output and rejects a single-element change at the
// first and last element of every pooled span, serially and with the
// parallel split forced on.
func TestCombineEqualMatchesCombine(t *testing.T) {
	defer par.SetMaxWorkers(par.SetMaxWorkers(0))
	rng := rand.New(rand.NewSource(28))
	for _, workers := range []int{1, 4} {
		par.SetMaxWorkers(workers)
		for _, tc := range []struct{ k, n int }{
			{1, 1}, {5, 17}, {4, combineSpan + 3}, {6, combineParGrain*2 + 37},
		} {
			coeffs, srcs := randSrcs(rng, tc.k, tc.n)
			coeffs[0] = 0 // exercise the zero-coefficient skip
			want := NewVec(tc.n)
			Combine(want, coeffs, srcs)
			if !CombineEqual(want, coeffs, srcs) {
				t.Fatalf("workers=%d k=%d n=%d: CombineEqual rejects Combine's output", workers, tc.k, tc.n)
			}
			for b := 0; b < tc.n; b += combineSpan {
				for _, i := range []int{b, min(b+combineSpan, tc.n) - 1} {
					bad := want.Clone()
					bad[i] = Add(bad[i], 1)
					if CombineEqual(bad, coeffs, srcs) {
						t.Fatalf("workers=%d k=%d n=%d: change at %d accepted", workers, tc.k, tc.n, i)
					}
				}
			}
		}
	}
}

// TestCombineLazyReductionBound drives more than MaxLazyTerms sources
// through one accumulator block so the interleaved reduction actually
// fires; the result must still match the eagerly-reduced oracle.
func TestCombineLazyReductionBound(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	k := MaxLazyTerms + 5
	n := 4
	coeffs := make([]Elem, k)
	srcs := make([]Vec, k)
	for j := range srcs {
		coeffs[j] = P - 1 // worst-case magnitude products
		v := make(Vec, n)
		for i := range v {
			v[i] = P - 1
		}
		srcs[j] = v
	}
	// A few random rows so the test is not purely the extreme point.
	for j := 0; j < 100; j++ {
		coeffs[rng.Intn(k)] = Rand(rng)
	}
	want := combineOracle(coeffs, srcs)
	got := NewVec(n)
	Combine(got, coeffs, srcs)
	if !got.Equal(want) {
		t.Fatal("Combine wraps past MaxLazyTerms: interleaved reduction is broken")
	}
}

func TestLazyAXPYAndReduce(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	n := 257
	acc := make([]uint64, n)
	want := NewVec(n)
	for j := 0; j < 50; j++ {
		s := Rand(rng)
		v := RandVec(rng, n)
		//lint:ignore lazyterms 50 terms is far below MaxLazyTerms; this test exercises the raw kernel deliberately
		LazyAXPY(acc, s, v)
		AXPY(want, s, v)
	}
	got := NewVec(n)
	ReduceAccInto(got, acc)
	if !got.Equal(want) {
		t.Fatal("LazyAXPY+ReduceAccInto diverges from AXPY")
	}
	ReduceAcc(acc)
	for i, v := range acc {
		if Elem(v) != want[i] {
			t.Fatalf("ReduceAcc[%d] = %d, want %d", i, v, want[i])
		}
	}
}

func TestScratchPoolsRoundTrip(t *testing.T) {
	v := GetScratchVec(100)
	if len(v) != 100 {
		t.Fatalf("GetScratchVec(100) has length %d", len(v))
	}
	PutScratchVec(v)
	a := GetScratchAcc(3000)
	if len(a) != 3000 {
		t.Fatalf("GetScratchAcc(3000) has length %d", len(a))
	}
	PutScratchAcc(a)
	if GetScratchVec(0) != nil || GetScratchAcc(0) != nil {
		t.Fatal("zero-length scratch should be nil")
	}
}

func TestInPlaceVecVariants(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	a, b := RandVec(rng, 64), RandVec(rng, 64)
	s := RandNonZero(rng)

	if !AddVecInto(make(Vec, 64), a, b).Equal(AddVec(a, b)) {
		t.Fatal("AddVecInto mismatch")
	}
	if !SubVecInto(make(Vec, 64), a, b).Equal(SubVec(a, b)) {
		t.Fatal("SubVecInto mismatch")
	}
	if !ScaleVecInto(make(Vec, 64), s, a).Equal(ScaleVec(s, a)) {
		t.Fatal("ScaleVecInto mismatch")
	}
	// Aliased destination: dst = a.
	alias := a.Clone()
	AddVecInto(alias, alias, b)
	if !alias.Equal(AddVec(a, b)) {
		t.Fatal("aliased AddVecInto mismatch")
	}
}
