package nn

import (
	"math/rand"
	"testing"

	"darknight/internal/field"
	"darknight/internal/spec"
	"darknight/internal/tensor"
)

// TestConvFieldKernelMatchesRef pins the lazy-reduction GPU conv kernel
// bit-for-bit to the reference kernel (spec.ConvForward) over F_p, including grouped and
// strided/padded geometries, and verifies pooled-buffer reuse is clean.
func TestConvFieldKernelMatchesRef(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	geoms := []tensor.ConvParams{
		{InC: 3, OutC: 8, KH: 3, KW: 3, Stride: 1, Pad: 1, InH: 8, InW: 8, Groups: 1},
		{InC: 4, OutC: 4, KH: 3, KW: 3, Stride: 2, Pad: 1, InH: 9, InW: 7, Groups: 4}, // depthwise
		{InC: 6, OutC: 9, KH: 1, KW: 1, Stride: 1, Pad: 0, InH: 5, InW: 5, Groups: 3},
	}
	for _, p := range geoms {
		layer := NewConv2D("c", p, rng)
		wq := field.RandVec(rng, layer.WLen())
		// Run twice per geometry: the second pass reuses pooled scratch.
		for pass := 0; pass < 2; pass++ {
			x := field.RandVec(rng, layer.InLen())
			want := spec.ConvForward(spec.Conv(p), wq, x)
			got := layer.LinearForwardField(wq, x)
			if !got.Equal(want) {
				t.Fatalf("conv field kernel diverges from reference (%+v, pass %d)", p, pass)
			}
			delta := field.RandVec(rng, layer.OutLen())
			gw := layer.GradWeightsField(delta, x)
			gw2 := layer.GradWeightsField(delta, x)
			if !gw.Equal(gw2) {
				t.Fatalf("GradWeightsField is not deterministic under pooled reuse (%+v)", p)
			}
		}
	}
}

// TestGradWeightsFieldMatchesRef pins the backward GPU kernels bit for bit
// to the reference ones, as TestConvFieldKernelMatchesRef does the forward
// conv: Dense's outer product against spec.DenseGrad (and its forward
// against spec.DenseForward), and Conv2D's δ·colsᵀ against spec.ConvGrad
// over plain, strided/padded, grouped and depthwise geometries, twice each
// so the second pass reuses pooled scratch.
func TestGradWeightsFieldMatchesRef(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	for _, shape := range [][2]int{{12, 6}, {1, 5}, {33, 17}} {
		d := NewDense("d", shape[0], shape[1], rng)
		wq := field.RandVec(rng, d.WLen())
		x := field.RandVec(rng, d.InLen())
		if !d.LinearForwardField(wq, x).Equal(spec.DenseForward(wq, x, d.OutLen())) {
			t.Fatalf("dense %v: forward field kernel diverges from reference", shape)
		}
		delta := field.RandVec(rng, d.OutLen())
		delta[0] = 0 // the kernel skips zero rows; the reference does not
		if !d.GradWeightsField(delta, x).Equal(spec.DenseGrad(delta, x)) {
			t.Fatalf("dense %v: gradient field kernel diverges from reference", shape)
		}
	}
	for _, p := range []tensor.ConvParams{
		{InC: 2, OutC: 3, KH: 3, KW: 3, Stride: 1, Pad: 1, InH: 5, InW: 5, Groups: 1},
		{InC: 3, OutC: 8, KH: 3, KW: 3, Stride: 2, Pad: 1, InH: 9, InW: 7, Groups: 1},
		{InC: 6, OutC: 9, KH: 1, KW: 1, Stride: 1, Pad: 0, InH: 5, InW: 5, Groups: 3}, // grouped
		{InC: 4, OutC: 4, KH: 3, KW: 3, Stride: 2, Pad: 1, InH: 9, InW: 7, Groups: 4}, // depthwise
	} {
		c := NewConv2D("c", p, rng)
		for pass := 0; pass < 2; pass++ {
			x := field.RandVec(rng, c.InLen())
			delta := field.RandVec(rng, c.OutLen())
			if !c.GradWeightsField(delta, x).Equal(spec.ConvGrad(spec.Conv(p), delta, x)) {
				t.Fatalf("conv gradient field kernel diverges from reference (%+v, pass %d)", p, pass)
			}
		}
	}
}
