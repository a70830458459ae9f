// Package field implements arithmetic over the prime field F_p with
// p = 2^25 - 39, the modulus DarKnight uses for its matrix-masking codes
// (paper §5: "we choose l = 8 and p = 2^25 − 39 ... the largest prime with
// 25 bits").
//
// Elements are stored as uint32 values in [0, p). Products of two elements
// fit comfortably in a uint64 (50 bits), so multiplication is a single
// 64-bit multiply followed by one Euclidean reduction. Signed quantities are
// represented with the usual centered lift: values in (p/2, p) stand for
// negatives (see Lift and FromInt64).
package field

import (
	"errors"
	"fmt"
	"math/rand"
)

// P is the field modulus, the largest 25-bit prime: 2^25 - 39.
const P uint32 = 1<<25 - 39

// Half is floor(P/2); values strictly greater than Half are interpreted as
// negative under the centered lift.
const Half uint32 = P / 2

// Elem is a field element. The zero value is the additive identity.
// All functions in this package assume their Elem arguments are already
// reduced (< P); use FromInt64 to normalize foreign values.
type Elem = uint32

// FromInt64 maps a signed integer into the field: negative values x become
// p - (|x| mod p), so that Lift(FromInt64(x)) == x whenever |x| <= Half.
func FromInt64(v int64) Elem {
	m := v % int64(P)
	if m < 0 {
		m += int64(P)
	}
	return Elem(m)
}

// Lift returns the centered representative of x in (-P/2, P/2].
// It is the inverse of FromInt64 on that range and is how DarKnight restores
// negative numbers after GPU computation (Algorithm 1: "TEE then subtracts p
// from all the elements larger than p/2").
func Lift(x Elem) int64 {
	if x > Half {
		return int64(x) - int64(P)
	}
	return int64(x)
}

// Add returns a + b mod p.
func Add(a, b Elem) Elem {
	s := a + b // max 2(p-1) < 2^26, no uint32 overflow
	if s >= P {
		s -= P
	}
	return s
}

// Sub returns a - b mod p.
func Sub(a, b Elem) Elem {
	if a >= b {
		return a - b
	}
	return a + P - b
}

// Neg returns -a mod p.
func Neg(a Elem) Elem {
	if a == 0 {
		return 0
	}
	return P - a
}

// Mul returns a * b mod p.
func Mul(a, b Elem) Elem {
	return Elem(uint64(a) * uint64(b) % uint64(P))
}

// MulAdd returns acc + a*b mod p, the fused op at the heart of every coded
// linear kernel in this repository.
func MulAdd(acc, a, b Elem) Elem {
	return Elem((uint64(acc) + uint64(a)*uint64(b)) % uint64(P))
}

// Pow returns a^e mod p by square-and-multiply.
func Pow(a Elem, e uint64) Elem {
	var result Elem = 1
	base := a
	for e > 0 {
		if e&1 == 1 {
			result = Mul(result, base)
		}
		base = Mul(base, base)
		e >>= 1
	}
	return result
}

// ErrNotInvertible is returned when an inverse of 0 (or of a singular
// matrix) is requested.
var ErrNotInvertible = errors.New("field: element or matrix is not invertible")

// Inv returns the multiplicative inverse a^(p-2) mod p.
// It returns ErrNotInvertible for a == 0.
func Inv(a Elem) (Elem, error) {
	if a == 0 {
		return 0, ErrNotInvertible
	}
	return Pow(a, uint64(P-2)), nil
}

// MustInv is Inv for callers that have already established a != 0.
// It panics on zero, which always indicates a programming error.
func MustInv(a Elem) Elem {
	inv, err := Inv(a)
	if err != nil {
		panic(fmt.Sprintf("field: inverse of zero (%v)", err))
	}
	return inv
}

// Rand returns a uniformly random field element drawn from rng.
// DarKnight's privacy proof (Lemma 1) requires noise that is uniform over
// F_p; rand.Rand's Uint32 composed with rejection sampling delivers exactly
// that.
func Rand(rng *rand.Rand) Elem {
	// Rejection-sample from [0, 2^25) to keep the distribution uniform.
	for {
		v := rng.Uint32() & (1<<25 - 1)
		if v < P {
			return v
		}
	}
}

// RandNonZero returns a uniformly random element of F_p \ {0}.
func RandNonZero(rng *rand.Rand) Elem {
	for {
		if v := Rand(rng); v != 0 {
			return v
		}
	}
}
