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

// sweepImage returns the smallest InH×InW (at least 3 on a side) whose
// output under kernel k, stride s and padding pad has more than four
// pixels, a number ≡ res (mod 4).
func sweepImage(k, s, pad, res int) (h, w int) {
	for side := 3; ; side++ {
		for h = 3; h <= side; h++ {
			w = side
			p := tensor.ConvParams{KH: k, KW: k, Stride: s, Pad: pad, InH: h, InW: w}
			if npix := p.OutH() * p.OutW(); p.OutH() > 0 && p.OutW() > 0 && npix > 4 && npix%4 == res {
				return h, w
			}
		}
	}
}

// TestConvFieldSweepMatchesSpec pins both passes of the device conv bit
// for bit to spec.ConvForward and spec.ConvGrad over a deterministic sweep:
// every out-channels-per-group residue mod 4 (4…7, so the 4-row tiles meet
// every remainder), pixel-count residue and patch-row residue, crossed with
// stride {1, 2}, pad {0, 1, 2}, kernel {1, 3} and groups {1, 2,
// depthwise}. A depthwise layer's patch rows are its kernel taps, 1 or 9,
// so only its row residue is fixed at 1.
func TestConvFieldSweepMatchesSpec(t *testing.T) {
	rng := rand.New(rand.NewSource(54))
	checked := 0
	for _, k := range []int{1, 3} {
		for _, s := range []int{1, 2} {
			for _, pad := range []int{0, 1, 2} {
				for res := 0; res < 4; res++ {
					h, w := sweepImage(k, s, pad, res)
					for _, groups := range []int{1, 2, 0} {
						cpgs := []int{1, 2, 3, 4} // patch rows cpg·k² ≡ cpg (mod 4)
						if groups == 0 {
							cpgs = []int{1}
						}
						for _, cpg := range cpgs {
							for ocpg := 4; ocpg <= 7; ocpg++ {
								g := groups
								if g == 0 {
									g = 3 // depthwise over 3 channels
								}
								p := tensor.ConvParams{InC: g * cpg, OutC: g * ocpg, KH: k, KW: k,
									Stride: s, Pad: pad, InH: h, InW: w, Groups: g}
								checkConvField(t, NewConv2D("c", p, rng), rng, false)
								checked++
							}
						}
					}
				}
			}
		}
	}
	t.Logf("%d geometries", checked)
}

// checkConvField runs both field passes of c on random operands (every
// operand P−1 when extreme) against the spec kernels.
func checkConvField(t *testing.T, c *Conv2D, rng *rand.Rand, extreme bool) {
	t.Helper()
	operand := func(n int) field.Vec {
		v := field.RandVec(rng, n)
		if extreme {
			for i := range v {
				v[i] = field.P - 1
			}
		}
		return v
	}
	wq, x, delta := operand(c.WLen()), operand(c.InLen()), operand(c.OutLen())
	if !c.LinearForwardField(wq, x).Equal(spec.ConvForward(spec.Conv(c.p), wq, x)) {
		t.Fatalf("forward diverges from spec.ConvForward (%+v)", c.p)
	}
	if !c.GradWeightsField(delta, x).Equal(spec.ConvGrad(spec.Conv(c.p), delta, x)) {
		t.Fatalf("weight gradient diverges from spec.ConvGrad (%+v)", c.p)
	}
}

// TestConvFieldPastLazyBound runs each pass's term axis past
// field.MaxLazyTerms with every operand P−1, where an accumulator that
// missed a reduction wraps: the forward's over more than 2¹⁴ patch rows
// (1821 channels of 3×3 taps on a 3×3 image, every term in range, and the
// padded 1×1 image of 1823 channels), the gradient's over more than 2¹⁴
// pixels (a 1×1 kernel on a 129×128 image).
func TestConvFieldPastLazyBound(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	for _, p := range []tensor.ConvParams{
		{InC: 1821, OutC: 5, KH: 3, KW: 3, Stride: 1, Pad: 0, InH: 3, InW: 3, Groups: 1},
		{InC: 1823, OutC: 3, KH: 3, KW: 3, Stride: 1, Pad: 1, InH: 1, InW: 1, Groups: 1},
		{InC: 1, OutC: 7, KH: 1, KW: 1, Stride: 1, Pad: 0, InH: 129, InW: 128, Groups: 1},
	} {
		cpg := p.InC / p.Groups
		if rows, npix := cpg*p.KH*p.KW, p.OutH()*p.OutW(); rows <= field.MaxLazyTerms && npix <= field.MaxLazyTerms {
			t.Fatalf("%+v: %d rows and %d pixels stay within the lazy bound", p, rows, npix)
		}
		checkConvField(t, NewConv2D("c", p, rng), rng, true)
	}
}

// FuzzConvField pins both field passes to the spec kernels over fuzzed
// geometry (groups 1, 2 or depthwise; kernel, stride and padding up to
// 5, 3 and 2) and operands, random or all P−1.
func FuzzConvField(f *testing.F) {
	f.Add(uint64(1), uint8(0), uint8(3), uint8(5), uint8(2), uint8(2), uint8(0), uint8(1), uint8(7), uint8(7), false)
	f.Add(uint64(2), uint8(1), uint8(1), uint8(6), uint8(0), uint8(0), uint8(1), uint8(0), uint8(4), uint8(9), true)
	f.Add(uint64(3), uint8(2), uint8(0), uint8(2), uint8(2), uint8(2), uint8(1), uint8(2), uint8(8), uint8(5), false)
	f.Fuzz(func(t *testing.T, seed uint64, groupSel, cpg, ocpg, kh, kw, stride, pad, h, w uint8, extreme bool) {
		g := []int{1, 2, 3}[groupSel%3]
		c := 1 + int(cpg)%4
		if g == 3 {
			c = 1 // depthwise
		}
		p := tensor.ConvParams{InC: g * c, OutC: g * (1 + int(ocpg)%8),
			KH: 1 + int(kh)%5, KW: 1 + int(kw)%5, Stride: 1 + int(stride)%3, Pad: int(pad) % 3,
			InH: 1 + int(h)%12, InW: 1 + int(w)%12, Groups: g}
		if p.OutH() <= 0 || p.OutW() <= 0 {
			t.Skip("kernel larger than the padded image")
		}
		rng := rand.New(rand.NewSource(int64(seed)))
		checkConvField(t, NewConv2D("c", p, rng), rng, extreme)
	})
}

// TestConvFieldAllocs pins the device conv at zero allocations once its
// caller returns each output to the field scratch pool, as the runtime does
// after decoding: the output and the bordered copy of a padded input are
// pooled, and an unpadded input is read in place.
func TestConvFieldAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector deliberately bypasses sync.Pool, so allocation counts are meaningless under -race")
	}
	rng := rand.New(rand.NewSource(56))
	for _, p := range []tensor.ConvParams{
		{InC: 4, OutC: 8, KH: 3, KW: 3, Stride: 1, Pad: 1, InH: 8, InW: 8, Groups: 1}, // vgg's second conv
		{InC: 6, OutC: 9, KH: 1, KW: 1, Stride: 1, Pad: 0, InH: 5, InW: 5, Groups: 3},
	} {
		c := NewConv2D("c", p, rng)
		wq, x, delta := field.RandVec(rng, c.WLen()), field.RandVec(rng, c.InLen()), field.RandVec(rng, c.OutLen())
		if n := testing.AllocsPerRun(50, func() { field.PutScratchVec(c.LinearForwardField(wq, x)) }); n != 0 {
			t.Fatalf("LinearForwardField(%+v): %v allocs, want 0", p, n)
		}
		if n := testing.AllocsPerRun(50, func() { field.PutScratchVec(c.GradWeightsField(delta, x)) }); n != 0 {
			t.Fatalf("GradWeightsField(%+v): %v allocs, want 0", p, n)
		}
	}
}
