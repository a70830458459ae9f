package masking

import (
	"fmt"
	"math/rand"

	"darknight/internal/field"
)

// This file retains the seed coding kernels verbatim: one field.AXPY per
// coefficient (a multiply and a Euclidean reduction per element per term)
// and a fresh output vector per call. They are kept as the readable oracle
// — the blocked lazy-reduction kernels in code.go must stay bit-identical
// to them (see code_test.go) — and as the baseline BenchmarkKernels and the
// allocation-regression test measure the optimized path against.

// EncodeRef is the reference implementation of Encode.
func (c *Code) EncodeRef(inputs []field.Vec, rng *rand.Rand) ([]field.Vec, error) {
	n, err := c.checkBatch(inputs)
	if err != nil {
		return nil, err
	}
	full := make([]field.Vec, c.S)
	copy(full, inputs)
	for m := 0; m < c.M; m++ {
		full[c.K+m] = field.RandVec(rng, n)
	}
	coded := make([]field.Vec, c.NumCoded())
	for j := range coded {
		out := field.NewVec(n)
		for m := 0; m < c.S; m++ {
			if a := c.A.At(m, j); a != 0 {
				field.AXPY(out, a, full[m])
			}
		}
		coded[j] = out
	}
	return coded, nil
}

// DecodeForwardRef is the reference implementation of DecodeForward.
func (c *Code) DecodeForwardRef(results []field.Vec) ([]field.Vec, error) {
	if len(results) < c.S {
		return nil, fmt.Errorf("%w: got %d results, need %d", ErrWrongCount, len(results), c.S)
	}
	n := len(results[0])
	out := make([]field.Vec, c.K)
	for i := 0; i < c.K; i++ {
		y := field.NewVec(n)
		for j := 0; j < c.S; j++ {
			if a := c.primary.inv.At(j, i); a != 0 {
				field.AXPY(y, a, results[j])
			}
		}
		out[i] = y
	}
	return out, nil
}

// DecodeBackwardRef is the reference implementation of DecodeBackward.
func (c *Code) DecodeBackwardRef(eqs []field.Vec) (field.Vec, error) {
	if len(eqs) < c.S {
		return nil, fmt.Errorf("%w: got %d equations, need %d", ErrWrongCount, len(eqs), c.S)
	}
	out := field.NewVec(len(eqs[0]))
	for j := 0; j < c.S; j++ {
		field.AXPY(out, c.Gamma[j], eqs[j])
	}
	return out, nil
}
