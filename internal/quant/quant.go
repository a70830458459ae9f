// Package quant implements DarKnight's fixed-point quantization (paper §5,
// Algorithm 1). Floating-point tensors are scaled by 2^l (l fractional
// bits), rounded to integers, and mapped into F_p with the centered lift for
// negatives. Linear GPU kernels then run exactly in the field; the TEE
// restores floats by lifting and dividing by 2^(2l) (inputs and weights each
// carry one factor of 2^l, so their products carry 2^(2l); biases are
// pre-scaled by 2^(2l) to line up). The restore's rounding step runs as an
// integer shift, (Lift(y) + 2^(l-1)) >> l, which equals Algorithm 1's
// Round(y × 2^-l) exactly, so no float divide or Floor is on the decode
// path; quantization still rounds floats with round.
package quant

import (
	"fmt"
	"math"

	"darknight/internal/field"
)

// DefaultFracBits is l = 8, the paper's choice for ResNet, VGG and
// MobileNet.
const DefaultFracBits = 8

// Quantizer converts between float64 tensors and F_p fixed-point vectors.
// The zero value is unusable; construct with New.
type Quantizer struct {
	fracBits uint
	scale    float64 // 2^l
	half     int64   // 2^(l-1), the rounding offset of the restore shift
	inv      float64 // 2^-l
}

// New returns a Quantizer with the given number of fractional bits.
// It panics if l would leave no headroom in the 25-bit field (l in [1, 12]
// keeps single products representable; the paper uses l = 8).
func New(fracBits uint) *Quantizer {
	if fracBits < 1 || fracBits > 12 {
		panic(fmt.Sprintf("quant: fracBits %d out of supported range [1,12]", fracBits))
	}
	scale := math.Ldexp(1, int(fracBits))
	return &Quantizer{fracBits: fracBits, scale: scale, half: 1 << (fracBits - 1), inv: 1 / scale}
}

// Default returns the paper's l = 8 quantizer.
func Default() *Quantizer { return New(DefaultFracBits) }

// round implements Algorithm 1's Round procedure: round half away from
// floor (x - floor(x) < 0.5 rounds down, otherwise up).
func round(x float64) int64 {
	f := math.Floor(x)
	if x-f < 0.5 {
		return int64(f)
	}
	return int64(f) + 1
}

// Quantize maps a float tensor to the field with one 2^l factor:
// Field(Round(x * 2^l)). Used for inputs and weights.
func (q *Quantizer) Quantize(xs []float64) field.Vec {
	return q.QuantizeInto(make(field.Vec, len(xs)), xs)
}

// QuantizeInto is Quantize writing into a caller-owned vector (typically
// arena-backed; see internal/sched), which is overwritten and returned.
func (q *Quantizer) QuantizeInto(dst field.Vec, xs []float64) field.Vec {
	if len(dst) != len(xs) {
		panic(fmt.Sprintf("quant: destination length %d != %d", len(dst), len(xs)))
	}
	for i, x := range xs {
		dst[i] = field.FromInt64(round(x * q.scale))
	}
	return dst
}

// UnquantizeProduct restores floats from a linear-operation result carrying
// the 2^(2l) factor: Algorithm 1 line 9, Round(Y_q × 2^-l) × 2^-l.
func (q *Quantizer) UnquantizeProduct(v field.Vec) []float64 {
	return q.UnquantizeProductInto(make([]float64, len(v)), v)
}

// UnquantizeProductInto is UnquantizeProduct writing into a caller-owned
// float buffer, which is overwritten and returned. It evaluates Algorithm 1
// line 9 in integers: Round(y × 2^-l) = ⌊(y + 2^(l-1)) / 2^l⌋, and an
// arithmetic right shift is exactly that floor division, so
//
//	float64((Lift(e) + 2^(l-1)) >> l) × 2^-l
//
// is bit-for-bit the float formula — y / 2^l is exact for |y| < 2^25 and
// scaling by a power of two is exact — without its divides and Floor.
func (q *Quantizer) UnquantizeProductInto(dst []float64, v field.Vec) []float64 {
	if len(dst) != len(v) {
		panic(fmt.Sprintf("quant: destination length %d != %d", len(dst), len(v)))
	}
	dst = dst[:len(v)]
	for i, e := range v {
		dst[i] = q.Product(e)
	}
	return dst
}

// Product restores one element of a linear-operation result: the
// per-element body of UnquantizeProductInto, for callers that fold further
// steps into the same sweep (see internal/sched's restore).
func (q *Quantizer) Product(e field.Elem) float64 {
	return float64((field.Lift(e)+q.half)>>q.fracBits) * q.inv
}

// HeadroomBudget describes how large a coded dot product can grow before it
// wraps mod p and corrupts the real-valued result. DarKnight's field is only
// 25 bits, so the implementation (like the paper's) must keep activations
// normalized; this helper makes the budget auditable.
type HeadroomBudget struct {
	FracBits   uint    // l
	MaxInput   float64 // assumed max |x|
	MaxWeight  float64 // assumed max |w|
	CodeWidth  int     // number of masked inputs combined (K+M(+1))
	DotLength  int     // reduction length of the linear op
	SafeLength int     // max DotLength that cannot wrap
}

// Budget computes the longest reduction that is guaranteed not to exceed
// (p-1)/2 in magnitude for the given operating point.
//
//lint:ignore testonly ROADMAP item 11 decides the fate of the headroom budget
func (q *Quantizer) Budget(maxInput, maxWeight float64, codeWidth, dotLength int) HeadroomBudget {
	// The masking coefficients α are uniform over F_p, so a coded input
	// coordinate is only meaningful mod p — exact recovery relies on field
	// arithmetic, not magnitude. What must NOT wrap is the *decoded*
	// real-valued result: |Σ w·x| ≤ maxInput·maxWeight·2^(2l)·DotLength.
	perTerm := maxInput * q.scale * maxWeight * q.scale
	safe := int(float64(field.Half) / perTerm)
	return HeadroomBudget{
		FracBits:   q.fracBits,
		MaxInput:   maxInput,
		MaxWeight:  maxWeight,
		CodeWidth:  codeWidth,
		DotLength:  dotLength,
		SafeLength: safe,
	}
}

// Fits reports whether the configured dot length is within the safe budget.
//
//lint:ignore testonly ROADMAP item 11 decides the fate of the headroom budget
func (b HeadroomBudget) Fits() bool { return b.DotLength <= b.SafeLength }
