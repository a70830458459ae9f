package nn

import (
	"fmt"
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

// TestBackwardIntoMatchesForwardBackward: every TEE-resident layer derives
// its backward from the example's input alone. Over random shapes,
// BackwardInto of x — into a dirty destination, on a layer whose last
// training forward saw another input — writes the input gradient, and
// accumulates the parameter gradients, bit-for-bit as a training
// ForwardInto of x followed by Backward does on a twin layer. Half the
// trials draw inputs from {-1, 0, 1}, so max-pooling windows tie and ReLU
// meets exact zeros, and a stride below the window makes pooling windows
// overlap, so one input element gathers several gradients. A warm call
// allocates nothing.
func TestBackwardIntoMatchesForwardBackward(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	input := func(ties bool, shape ...int) *tensor.Tensor {
		x := randTensor(rng, shape...)
		if ties {
			for i := range x.Data {
				x.Data[i] = float64(rng.Intn(3) - 1)
			}
		}
		return x
	}
	for trial := 0; trial < 300; trial++ {
		c, h, w := 1+rng.Intn(3), 1+rng.Intn(7), 1+rng.Intn(7)
		pool := tensor.PoolParams{C: c, InH: h, InW: w, K: 1 + rng.Intn(min(h, w, 3)), Stride: 1 + rng.Intn(2)}
		ties := trial%2 == 0
		for _, mk := range []func() Resident{
			func() Resident { return NewReLU("relu", c, h, w) },
			func() Resident { return NewMaxPool("maxpool", pool) },
			func() Resident { return NewAvgPool("avgpool", pool) },
			func() Resident { return NewFlatten("flatten", c, h, w) },
			func() Resident { return NewBatchNorm("batchnorm", c, h, w) },
		} {
			want, got := mk(), mk()
			for i, p := range want.Params() {
				for j := range p.W.Data {
					p.W.Data[j] = rng.NormFloat64()
				}
				copy(got.Params()[i].W.Data, p.W.Data)
			}
			x, y := input(ties, c, h, w), input(ties, c, h, w)
			gout := randTensor(rng, want.OutShape()...)
			tag := fmt.Sprintf("%s %dx%dx%d %+v", want.Name(), c, h, w, pool)

			want.ForwardInto(tensor.New(want.OutShape()...), x, true)
			din := want.Backward(gout)

			got.ForwardInto(tensor.New(got.OutShape()...), y, true)
			dst := tensor.New(c, h, w)
			dst.Fill(math.NaN())
			got.BackwardInto(dst, x, gout)
			sameBits(t, tag+" input gradient", din.Data, dst.Data)
			for i, p := range want.Params() {
				sameBits(t, tag+" "+p.Name, p.Grad.Data, got.Params()[i].Grad.Data)
			}

			if !raceEnabled {
				if n := testing.AllocsPerRun(5, func() { got.BackwardInto(dst, x, gout) }); n != 0 {
					t.Fatalf("%s: warm BackwardInto made %v allocations, want 0", tag, n)
				}
			}
		}
	}
}
