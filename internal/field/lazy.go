package field

import (
	"fmt"
	"sync"
	"sync/atomic"

	"darknight/internal/par"
	"darknight/internal/scratch"
)

// This file implements the lazy-reduction kernels behind the coding hot
// path. A product of two reduced elements is at most (P-1)² < 2^50, so a
// uint64 accumulator can absorb MaxLazyTerms = 2^14 such products plus one
// already-reduced carry before it can wrap:
//
//	2^14·(P-1)² + (P-1) < 2^64.
//
// Encode/decode therefore run as blocked matrix-matrix products that
// multiply-add without any modulo and reduce each accumulator exactly once
// per MaxLazyTerms terms — versus the seed kernels' one `% P` per element
// per term. Accumulator blocks are pooled (stored behind pointers so
// Get/Put never boxes) and the column dimension fans out across cores via
// par.For, keeping the steady-state path allocation-free.

// MaxLazyTerms is how many ≤(P-1)² products a uint64 accumulator holding an
// already-reduced value can absorb before it must be reduced again.
const MaxLazyTerms = 1 << 14

// combineBlock is the column-block width of Combine: 4096 uint64
// accumulators (32 KiB) plus one source block stay L1/L2-resident.
const combineBlock = 4096

// combineSpan is the width of one pooled accumulator: TWO column blocks.
// Combine sweeps them as a single wider span (half the per-block loop
// overhead — accumulator zeroing setup, coefficient rescan, pool traffic —
// for the same cache story, since the span still fits L2); Combine2 splits
// them one block per output row so both rows of a pair share a single pass
// over the sources.
const combineSpan = 2 * combineBlock

// combineParGrain is the element count below which Combine stays serial;
// fanning out goroutines for tiny vectors costs more than the modmuls.
// Lifted from 1<<15 by a measured sweep (see EXPERIMENTS.md): one grain of
// serial combine work takes ~370 µs at 1<<16 against single-digit-µs
// goroutine fan-out cost (<1% overhead), where the old 1<<15 grain paid
// ~2–4%.
const combineParGrain = 1 << 16

// accPool recycles Combine's fixed-size accumulator blocks. It is kept
// separate from the general scratch.Pool because the steady-state coding
// loop must be allocation-free: the SAME *[]uint64 round-trips through
// Get/Put (pointer interface conversions never box), whereas scratch.Pool
// builds a fresh slice-header pointer on every Put.
var accPool = sync.Pool{New: func() any {
	b := make([]uint64, combineSpan)
	return &b
}}

// getAcc returns a pooled accumulator of at least n elements.
func getAcc(n int) *[]uint64 {
	p := accPool.Get().(*[]uint64)
	if cap(*p) < n {
		*p = make([]uint64, n)
	}
	return p
}

func putAcc(p *[]uint64) { accPool.Put(p) }

// Budget tracks how many ≤(P-1)² lazy products an accumulator (or a pair
// of accumulators fed in lockstep) has absorbed since its last reduction.
// It is THE canonical guard idiom for lazy-accumulation loops: every loop
// that calls LazyAXPY/LazyAXPY2 must either tick a Budget, test
// MaxLazyTerms directly, or reduce inside the loop — an invariant the
// lazyterms analyzer (internal/analysis/lazyterms) machine-checks, so the
// overflow arithmetic lives here and nowhere else. The zero value is a
// fresh budget.
type Budget int

// Tick1 charges one lazy term against acc's budget, reducing acc and
// resetting the budget when MaxLazyTerms is reached. Call it after every
// LazyAXPY on acc.
//
//darknight:hotpath
func (b *Budget) Tick1(acc []uint64) {
	*b++
	if *b == MaxLazyTerms {
		ReduceAcc(acc)
		*b = 0
	}
}

// Tick2 charges one lazy term against the shared budget of an accumulator
// pair fed in lockstep (LazyAXPY2, or LazyAXPY on either row), reducing
// both and resetting the budget when MaxLazyTerms is reached.
//
//darknight:hotpath
func (b *Budget) Tick2(acc0, acc1 []uint64) {
	*b++
	if *b == MaxLazyTerms {
		ReduceAcc(acc0)
		ReduceAcc(acc1)
		*b = 0
	}
}

// LazyAXPY accumulates acc[i] += s·v[i] without reduction. The caller owns
// the term budget: after MaxLazyTerms calls on the same accumulator (since
// the last ReduceAcc) the sums may wrap. The 4-way slice-advance unroll
// keeps the inner loop free of bounds checks.
//
//darknight:hotpath
func LazyAXPY(acc []uint64, s Elem, v Vec) {
	n := len(v)
	a := acc[:n]
	c := uint64(s)
	i := 0
	for ; i+4 <= n; i += 4 {
		x0, x1, x2, x3 := uint64(v[i]), uint64(v[i+1]), uint64(v[i+2]), uint64(v[i+3])
		a[i] += c * x0
		a[i+1] += c * x1
		a[i+2] += c * x2
		a[i+3] += c * x3
	}
	for ; i < n; i++ {
		a[i] += c * uint64(v[i])
	}
}

// LazyAXPY2 accumulates two rows in a single pass over the shared source —
// acc0 += c0·v and acc1 += c1·v — halving source traffic for kernels that
// produce multiple output rows from one patch matrix (the conv GPU
// kernel). Both accumulators share one term budget against MaxLazyTerms.
//
//darknight:hotpath
func LazyAXPY2(acc0, acc1 []uint64, c0, c1 Elem, v Vec) {
	n := len(v)
	a0 := acc0[:n]
	a1 := acc1[:n]
	u0, u1 := uint64(c0), uint64(c1)
	i := 0
	for ; i+4 <= n; i += 4 {
		x0, x1, x2, x3 := uint64(v[i]), uint64(v[i+1]), uint64(v[i+2]), uint64(v[i+3])
		a0[i] += u0 * x0
		a0[i+1] += u0 * x1
		a0[i+2] += u0 * x2
		a0[i+3] += u0 * x3
		a1[i] += u1 * x0
		a1[i+1] += u1 * x1
		a1[i+2] += u1 * x2
		a1[i+3] += u1 * x3
	}
	for ; i < n; i++ {
		x := uint64(v[i])
		a0[i] += u0 * x
		a1[i] += u1 * x
	}
}

// ReduceAcc reduces every accumulator into [0, P), resetting the lazy-term
// budget to MaxLazyTerms.
//
//darknight:hotpath
func ReduceAcc(acc []uint64) {
	for i, v := range acc {
		acc[i] = v % uint64(P)
	}
}

// ReduceAccInto reduces the accumulators into a reduced Vec.
//
//darknight:hotpath
func ReduceAccInto(dst Vec, acc []uint64) {
	acc = acc[:len(dst)]
	for i := range acc {
		dst[i] = Elem(acc[i] % uint64(P))
	}
}

// Combine computes the fused scale-add dst[i] = Σ_j coeffs[j]·srcs[j][i]
// mod p — one output row of the coding matrix product — with blocked lazy
// reduction and parallel column blocks. It is the kernel behind
// Code.EncodeWith, DecodeForwardInto and DecodeBackwardInto. dst may alias
// none of the srcs. It performs no allocation beyond pooled accumulator
// blocks, so steady-state encode/decode loops stay allocation-free.
func Combine(dst Vec, coeffs []Elem, srcs []Vec) {
	if len(coeffs) != len(srcs) {
		panic(fmt.Sprintf("field: combine has %d coefficients for %d sources", len(coeffs), len(srcs)))
	}
	n := len(dst)
	for _, s := range srcs {
		if len(s) != n {
			panic(fmt.Sprintf("field: combine source length %d != %d", len(s), n))
		}
	}
	// The serial fast path is taken without building a closure: a captured
	// func literal heap-allocates, and the steady-state loop must not.
	if n <= combineParGrain || par.Workers() == 1 {
		combineRange(dst, coeffs, srcs, 0, n)
		return
	}
	par.For(n, combineParGrain, func(lo, hi int) {
		combineRange(dst, coeffs, srcs, lo, hi)
	})
}

// combineRange is Combine over the column range [lo, hi), sweeping one
// pooled accumulator — two column blocks wide — at a time.
//
//darknight:hotpath
func combineRange(dst Vec, coeffs []Elem, srcs []Vec, lo, hi int) {
	accp := getAcc(combineSpan)
	acc := *accp
	for b := lo; b < hi; b += combineSpan {
		be := b + combineSpan
		if be > hi {
			be = hi
		}
		blk := acc[:be-b]
		for i := range blk {
			blk[i] = 0
		}
		var terms Budget
		for j, c := range coeffs {
			if c == 0 {
				continue
			}
			LazyAXPY(blk, c, srcs[j][b:be])
			terms.Tick1(blk)
		}
		ReduceAccInto(dst[b:be], blk)
	}
	putAcc(accp)
}

// Combine2 computes TWO output rows of the coding matrix product in one
// pass over the shared sources: dst0 = Σ_j c0[j]·srcs[j] and
// dst1 = Σ_j c1[j]·srcs[j] mod p, via LazyAXPY2 — the sources are streamed
// once instead of twice, which matters because the combine is memory-bound.
// The pooled accumulator's two column blocks serve one row each. Results
// are bit-identical to two Combine calls (the lazy reductions commute with
// the final mod). Destinations may alias none of the sources or each other.
func Combine2(dst0, dst1 Vec, c0, c1 []Elem, srcs []Vec) {
	if len(c0) != len(srcs) || len(c1) != len(srcs) {
		panic(fmt.Sprintf("field: combine2 has %d/%d coefficients for %d sources", len(c0), len(c1), len(srcs)))
	}
	n := len(dst0)
	if len(dst1) != n {
		panic(fmt.Sprintf("field: combine2 destination lengths %d != %d", len(dst0), len(dst1)))
	}
	for _, s := range srcs {
		if len(s) != n {
			panic(fmt.Sprintf("field: combine source length %d != %d", len(s), n))
		}
	}
	if n <= combineParGrain || par.Workers() == 1 {
		combineRange2(dst0, dst1, c0, c1, srcs, 0, n)
		return
	}
	par.For(n, combineParGrain, func(lo, hi int) {
		combineRange2(dst0, dst1, c0, c1, srcs, lo, hi)
	})
}

// combineRange2 is Combine2 over the column range [lo, hi): the pooled
// accumulator's first block carries dst0's columns, the second dst1's.
//
//darknight:hotpath
func combineRange2(dst0, dst1 Vec, c0, c1 []Elem, srcs []Vec, lo, hi int) {
	accp := getAcc(combineSpan)
	acc := *accp
	for b := lo; b < hi; b += combineBlock {
		be := b + combineBlock
		if be > hi {
			be = hi
		}
		w := be - b
		blk0 := acc[:w]
		blk1 := acc[combineBlock : combineBlock+w]
		for i := 0; i < w; i++ {
			blk0[i] = 0
			blk1[i] = 0
		}
		var terms Budget
		for j := range srcs {
			u0, u1 := c0[j], c1[j]
			if u0 == 0 && u1 == 0 {
				continue
			}
			LazyAXPY2(blk0, blk1, u0, u1, srcs[j][b:be])
			terms.Tick2(blk0, blk1)
		}
		ReduceAccInto(dst0[b:be], blk0)
		ReduceAccInto(dst1[b:be], blk1)
	}
	putAcc(accp)
}

// CombineEqual reports whether want = Σ_j coeffs[j]·srcs[j] mod p — one
// row of the coding matrix product compared against a vector instead of
// written to one. It is the kernel behind the forward parity check
// (Code.VerifyForward): the product is never materialised, so the check
// streams its sources and want once and, like Combine, allocates nothing
// beyond pooled accumulator blocks on the serial path.
func CombineEqual(want Vec, coeffs []Elem, srcs []Vec) bool {
	if len(coeffs) != len(srcs) {
		panic(fmt.Sprintf("field: combine has %d coefficients for %d sources", len(coeffs), len(srcs)))
	}
	n := len(want)
	for _, s := range srcs {
		if len(s) != n {
			panic(fmt.Sprintf("field: combine source length %d != %d", len(s), n))
		}
	}
	if n <= combineParGrain || par.Workers() == 1 {
		return combineEqualRange(want, coeffs, srcs, 0, n)
	}
	var differ atomic.Bool
	par.For(n, combineParGrain, func(lo, hi int) {
		if !combineEqualRange(want, coeffs, srcs, lo, hi) {
			differ.Store(true)
		}
	})
	return !differ.Load()
}

// combineEqualRange is CombineEqual over the column range [lo, hi). The
// comparison ORs the differences of a whole block before branching, so a
// block costs the same whether or not it matches.
//
//darknight:hotpath
func combineEqualRange(want Vec, coeffs []Elem, srcs []Vec, lo, hi int) bool {
	accp := getAcc(combineSpan)
	acc := *accp
	var diff uint32
	for b := lo; b < hi && diff == 0; b += combineSpan {
		be := b + combineSpan
		if be > hi {
			be = hi
		}
		ws := want[b:be]
		blk := acc[:len(ws)]
		for i := range blk {
			blk[i] = 0
		}
		var terms Budget
		for j, c := range coeffs {
			if c == 0 {
				continue
			}
			LazyAXPY(blk, c, srcs[j][b:be])
			terms.Tick1(blk)
		}
		for i, a := range blk {
			diff |= Elem(a%uint64(P)) ^ ws[i]
		}
	}
	putAcc(accp)
	return diff == 0
}

// Pooled kernel scratch (internal/scratch size-classed pools). The
// GPU-side field kernels (internal/nn) draw their per-call im2col patch
// matrices and accumulator rows here; pools are safe for the concurrent
// gang-dispatch goroutines. Buffers are NOT zeroed on Get.
var (
	elemPool scratch.Pool[Elem]
	u64Pool  scratch.Pool[uint64]
)

// GetScratchVec returns a pooled, NOT-zeroed Vec of length n. Return it
// with PutScratchVec.
func GetScratchVec(n int) Vec { return elemPool.Get(n) }

// PutScratchVec returns a GetScratchVec buffer to the pool.
func PutScratchVec(v Vec) { elemPool.Put(v) }

// GetScratchAcc returns a pooled, NOT-zeroed uint64 accumulator row of
// length n for lazy-reduction kernels. Return it with PutScratchAcc.
func GetScratchAcc(n int) []uint64 { return u64Pool.Get(n) }

// PutScratchAcc returns a GetScratchAcc buffer to the pool.
func PutScratchAcc(a []uint64) { u64Pool.Put(a) }

// Arena is a bump allocator for field vectors with stable backing arrays:
// Vec hands out zeroed subslices of large blocks, Reset recycles them all
// at once. A steady-state caller that requests the same vector sequence
// every step allocates only on its first pass — afterwards the blocks are
// simply re-sliced, which is what keeps the TEE-side encode→decode loop
// allocation-free. Vectors obtained from an Arena are invalidated by Reset;
// they must not be retained across it (hand long-lived copies out with
// Clone). An Arena is not safe for concurrent use.
type Arena struct {
	blocks []Vec
	block  int // index of the block currently served from
	off    int // next free element in that block
}

// arenaBlock is the minimum size of a backing block.
const arenaBlock = 1 << 16

// Reset recycles every vector handed out since the last Reset.
func (a *Arena) Reset() {
	a.block = 0
	a.off = 0
}

// RawVec returns a vector of length n backed by the arena WITHOUT zeroing
// it — the caller must overwrite every element before reading. The
// steady-state offload loop uses it for buffers that QuantizeInto,
// RandVecInto and Combine overwrite unconditionally, saving one full
// memset pass over all coded data per offload.
func (a *Arena) RawVec(n int) Vec {
	for {
		if a.block < len(a.blocks) {
			b := a.blocks[a.block]
			if a.off+n <= len(b) {
				v := b[a.off : a.off+n : a.off+n]
				a.off += n
				return v
			}
			a.block++
			a.off = 0
			continue
		}
		size := arenaBlock
		if size < n {
			size = n
		}
		a.blocks = append(a.blocks, make(Vec, size))
	}
}
