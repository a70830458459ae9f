package nn

import "testing"

func TestVGG16ArchCounts(t *testing.T) {
	a := VGG16Arch()
	// Published: 138.4 M params, ~15.5 G forward MACs.
	params := a.TotalParams()
	if params < 135e6 || params > 142e6 {
		t.Fatalf("VGG16 params = %d, want ≈138M", params)
	}
	totals := a.TotalsByClass()
	macs := totals[ClassLinear].MACs
	if macs < 15.0e9 || macs > 16.0e9 {
		t.Fatalf("VGG16 linear MACs = %d, want ≈15.5G", macs)
	}
	// VGG has no batch norm.
	if totals[ClassBatchNorm].MACs != 0 {
		t.Fatal("VGG16 should have no batch norm")
	}
}

func TestResNet50ArchCounts(t *testing.T) {
	a := ResNet50Arch()
	params := a.TotalParams()
	// Published: 25.6 M params, ~4.1 G MACs.
	if params < 24e6 || params > 27e6 {
		t.Fatalf("ResNet50 params = %d, want ≈25.5M", params)
	}
	macs := a.TotalsByClass()[ClassLinear].MACs
	if macs < 3.6e9 || macs > 4.4e9 {
		t.Fatalf("ResNet50 linear MACs = %d, want ≈4.1G", macs)
	}
	if a.TotalsByClass()[ClassBatchNorm].MACs == 0 {
		t.Fatal("ResNet50 must have batch norm cost")
	}
}

func TestMobileNetV1ArchCounts(t *testing.T) {
	a := MobileNetV1Arch()
	params := a.TotalParams()
	// Published: 4.2 M params, ~569 M MACs.
	if params < 3.8e6 || params > 4.6e6 {
		t.Fatalf("MobileNetV1 params = %d, want ≈4.2M", params)
	}
	macs := a.TotalsByClass()[ClassLinear].MACs
	if macs < 5.0e8 || macs > 6.4e8 {
		t.Fatalf("MobileNetV1 linear MACs = %d, want ≈569M", macs)
	}
}

func TestMobileNetV2ArchCounts(t *testing.T) {
	a := MobileNetV2Arch()
	params := a.TotalParams()
	// Published: 3.4 M params, ~300 M MACs.
	if params < 3.0e6 || params > 3.9e6 {
		t.Fatalf("MobileNetV2 params = %d, want ≈3.4M", params)
	}
	macs := a.TotalsByClass()[ClassLinear].MACs
	if macs < 2.6e8 || macs > 3.6e8 {
		t.Fatalf("MobileNetV2 linear MACs = %d, want ≈300M", macs)
	}
}

func TestLinearFractionOrdering(t *testing.T) {
	// The paper's core observation (Table 3): VGG16 is linear-dominated;
	// MobileNet/ResNet shift time into batch norm and other TEE ops.
	frac := func(a *Arch) float64 {
		tt := a.TotalsByClass()
		var total int64
		for _, v := range tt {
			total += v.MACs
		}
		return float64(tt[ClassLinear].MACs) / float64(total)
	}
	vgg, res, mob := frac(VGG16Arch()), frac(ResNet50Arch()), frac(MobileNetV2Arch())
	if !(vgg > res && vgg > mob) {
		t.Fatalf("linear fractions: vgg %.3f res %.3f mob %.3f — VGG must dominate", vgg, res, mob)
	}
	if vgg < 0.98 {
		t.Fatalf("VGG16 linear fraction %.3f unexpectedly low", vgg)
	}
}

func TestLargestActivation(t *testing.T) {
	a := VGG16Arch()
	// First conv block output: 64×224×224 = 3.2M elements.
	if got := a.LargestActivation(); got != 64*224*224 {
		t.Fatalf("largest activation = %d", got)
	}
}

// TotalsByClass buckets the per-layer records by op class.
func (a *Arch) TotalsByClass() map[OpClass]ClassTotals {
	out := make(map[OpClass]ClassTotals)
	for _, l := range a.Layers {
		t := out[l.Class]
		t.MACs += l.MACs
		t.InElems += l.InElems
		t.OutElems += l.OutElems
		t.Params += l.Params
		out[l.Class] = t
	}
	return out
}

// TotalParams returns the learnable parameter count.
func (a *Arch) TotalParams() int64 {
	var n int64
	for _, l := range a.Layers {
		n += l.Params
	}
	return n
}

// LargestActivation returns the biggest single-layer output element count —
// the quantity SGX memory pressure scales with.
func (a *Arch) LargestActivation() int64 {
	var m int64
	for _, l := range a.Layers {
		if l.OutElems > m {
			m = l.OutElems
		}
	}
	return m
}

// ClassTotals aggregates cost by op class.
type ClassTotals struct {
	MACs, InElems, OutElems, Params int64
}
