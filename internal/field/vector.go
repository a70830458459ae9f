package field

import (
	"fmt"
	"math/rand"
)

// Vec is a vector of field elements. DarKnight treats every tensor (image,
// feature map, gradient) that crosses the TEE boundary as a flat Vec over
// F_p after quantization.
type Vec []Elem

// NewVec allocates a zero vector of length n.
func NewVec(n int) Vec { return make(Vec, n) }

// RandVec returns a vector of n uniformly random field elements. It is the
// noise generator for the masking scheme (the r and r_1..r_M vectors of
// Eq (1) and Eq (10)).
func RandVec(rng *rand.Rand, n int) Vec {
	return RandVecInto(rng, make(Vec, n))
}

// RandVecInto fills v with uniformly random field elements in place and
// returns it — the allocation-free noise draw of the serving loop. The rng
// must be private to the calling goroutine (each pipeline worker owns its
// own seeded RNG; see internal/serve).
func RandVecInto(rng *rand.Rand, v Vec) Vec {
	for i := range v {
		v[i] = Rand(rng)
	}
	return v
}

// Clone returns a deep copy of v.
func (v Vec) Clone() Vec {
	c := make(Vec, len(v))
	copy(c, v)
	return c
}

// AddVec returns a + b elementwise. Panics if lengths differ: coded inputs
// in a virtual batch must all have identical shape.
func AddVec(a, b Vec) Vec {
	return AddVecInto(make(Vec, len(a)), a, b)
}

// AddVecInto computes dst = a + b elementwise in place and returns dst.
// dst may alias a or b.
func AddVecInto(dst, a, b Vec) Vec {
	checkLen(len(a), len(b))
	checkLen(len(dst), len(a))
	for i := range a {
		dst[i] = Add(a[i], b[i])
	}
	return dst
}

// SubVec returns a - b elementwise.
func SubVec(a, b Vec) Vec {
	return SubVecInto(make(Vec, len(a)), a, b)
}

// SubVecInto computes dst = a - b elementwise in place and returns dst.
// dst may alias a or b.
func SubVecInto(dst, a, b Vec) Vec {
	checkLen(len(a), len(b))
	checkLen(len(dst), len(a))
	for i := range a {
		dst[i] = Sub(a[i], b[i])
	}
	return dst
}

// ScaleVec returns s * v elementwise.
//
//lint:ignore testonly test fixture for the field, fleet, gpu, masking and nn tests
func ScaleVec(s Elem, v Vec) Vec {
	return ScaleVecInto(make(Vec, len(v)), s, v)
}

// ScaleVecInto computes dst = s·v elementwise in place and returns dst.
// dst may alias v.
func ScaleVecInto(dst Vec, s Elem, v Vec) Vec {
	checkLen(len(dst), len(v))
	for i := range v {
		dst[i] = Mul(s, v[i])
	}
	return dst
}

// AXPY performs dst += s*v in place — the reference encode inner loop
// (x̄ accumulates α_{j,i}·x_j one source vector at a time, one reduction
// per element per term). The production coding path uses Combine, which
// fuses all terms with lazy reduction; AXPY remains the readable oracle.
func AXPY(dst Vec, s Elem, v Vec) {
	checkLen(len(dst), len(v))
	for i := range dst {
		dst[i] = MulAdd(dst[i], s, v[i])
	}
}

// Dot returns the inner product <a, b> over F_p.
func Dot(a, b Vec) Elem {
	checkLen(len(a), len(b))
	var acc uint64
	for i := range a {
		acc += uint64(a[i]) * uint64(b[i])
		// Lazy reduction: 2^50-bit products accumulate safely for at
		// least 2^13 terms before approaching 2^63; reduce periodically.
		if i&0xFFF == 0xFFF {
			acc %= uint64(P)
		}
	}
	return Elem(acc % uint64(P))
}

// Equal reports whether a and b are identical vectors.
func (v Vec) Equal(o Vec) bool {
	if len(v) != len(o) {
		return false
	}
	for i := range v {
		if v[i] != o[i] {
			return false
		}
	}
	return true
}

func checkLen(a, b int) {
	if a != b {
		panic(fmt.Sprintf("field: length mismatch %d != %d", a, b))
	}
}
