package nn

import (
	"math"
	"math/rand"
	"testing"

	"darknight/internal/tensor"
)

// residentLayers builds one of each TEE-resident layer over a 2×4×4 input.
func residentLayers() []Resident {
	pool := tensor.PoolParams{C: 2, InH: 4, InW: 4, K: 2, Stride: 2}
	return []Resident{
		NewReLU("relu", 2, 4, 4),
		NewMaxPool("maxpool", pool),
		NewAvgPool("avgpool", pool),
		NewBatchNorm("bn", 2, 4, 4),
		NewFlatten("flatten", 2, 4, 4),
	}
}

func randTensor(rng *rand.Rand, shape ...int) *tensor.Tensor {
	x := tensor.New(shape...)
	for i := range x.Data {
		x.Data[i] = rng.NormFloat64()
	}
	return x
}

func sameBits(t *testing.T, what string, want, got []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d values, want %d", what, len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s[%d] = %v, want %v", what, i, got[i], want[i])
		}
	}
}

// TestForwardIntoOverwritesDst: ForwardInto writes every element of a
// dirty destination, and Forward is exactly ForwardInto on a fresh tensor,
// in both modes.
func TestForwardIntoOverwritesDst(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, train := range []bool{false, true} {
		for _, l := range residentLayers() {
			x := randTensor(rng, 2, 4, 4)
			want := l.Forward(x, train)
			dst := tensor.New(l.OutShape()...)
			dst.Fill(math.NaN())
			l.ForwardInto(dst, x, train)
			sameBits(t, l.Name(), want.Data, dst.Data)
		}
	}
}

// TestEvalForwardKeepsBackwardState: an inference forward between a
// training forward and its Backward records nothing, so the Backward is
// still the gradient at the training input — input and parameter
// gradients bit-identical to a Backward with no evaluation in between.
func TestEvalForwardKeepsBackwardState(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, mk := range []func() Layer{
		func() Layer { return NewReLU("relu", 2, 4, 4) },
		func() Layer { return NewMaxPool("maxpool", tensor.PoolParams{C: 2, InH: 4, InW: 4, K: 2, Stride: 2}) },
		func() Layer { return NewBatchNorm("batchnorm", 2, 4, 4) },
	} {
		clean, probed := mk(), mk()
		t.Run(clean.Name(), func(t *testing.T) {
			a, b := randTensor(rng, 2, 4, 4), randTensor(rng, 2, 4, 4)
			g := randTensor(rng, clean.OutShape()...)

			clean.Forward(a, true)
			want := clean.Backward(g)

			probed.Forward(a, true)
			probed.Forward(b, false)
			got := probed.Backward(g)

			sameBits(t, "input gradient", want.Data, got.Data)
			for i, p := range clean.Params() {
				sameBits(t, p.Name, p.Grad.Data, probed.Params()[i].Grad.Data)
			}
		})
	}
}
