package nn

// This file describes the FULL-SIZE architectures the paper evaluates
// (VGG16, ResNet50, MobileNetV1, MobileNetV2 on ImageNet geometry) as
// analytic per-layer cost records, without materializing weights — VGG16
// alone has 138 M parameters, which the performance model never needs in
// memory. The scaled, trainable counterparts live in models.go.

// Arch is an analytic architecture description: the per-layer cost records
// of a network at a fixed input geometry.
type Arch struct {
	Name   string
	Input  [3]int // C, H, W
	Layers []LayerStat
}

// archBuilder threads a (C, H, W) cursor through stat constructors.
type archBuilder struct {
	a       *Arch
	c, h, w int
}

func newArchBuilder(name string, c, h, w int) *archBuilder {
	return &archBuilder{a: &Arch{Name: name, Input: [3]int{c, h, w}}, c: c, h: h, w: w}
}

func (b *archBuilder) conv(name string, outC, k, stride, pad, groups int) *archBuilder {
	oh := (b.h+2*pad-k)/stride + 1
	ow := (b.w+2*pad-k)/stride + 1
	cpg := int64(b.c / groups)
	out := int64(outC) * int64(oh) * int64(ow)
	b.a.Layers = append(b.a.Layers, LayerStat{
		Name: name, Class: ClassLinear,
		MACs:    out * cpg * int64(k) * int64(k),
		InElems: int64(b.c) * int64(b.h) * int64(b.w), OutElems: out,
		Params: int64(outC)*cpg*int64(k)*int64(k) + int64(outC),
	})
	b.c, b.h, b.w = outC, oh, ow
	return b
}

func (b *archBuilder) bn(name string) *archBuilder {
	n := int64(b.c) * int64(b.h) * int64(b.w)
	b.a.Layers = append(b.a.Layers, LayerStat{
		Name: name, Class: ClassBatchNorm, MACs: 4 * n, InElems: n, OutElems: n,
		Params: 2 * int64(b.c),
	})
	return b
}

func (b *archBuilder) relu(name string) *archBuilder {
	n := int64(b.c) * int64(b.h) * int64(b.w)
	b.a.Layers = append(b.a.Layers, LayerStat{
		Name: name, Class: ClassReLU, MACs: n, InElems: n, OutElems: n,
	})
	return b
}

func (b *archBuilder) maxPool(name string, k, stride int) *archBuilder {
	oh := (b.h-k)/stride + 1
	ow := (b.w-k)/stride + 1
	out := int64(b.c) * int64(oh) * int64(ow)
	b.a.Layers = append(b.a.Layers, LayerStat{
		Name: name, Class: ClassMaxPool, MACs: out * int64(k) * int64(k),
		InElems: int64(b.c) * int64(b.h) * int64(b.w), OutElems: out,
	})
	b.h, b.w = oh, ow
	return b
}

func (b *archBuilder) avgPool(name string, k, stride int) *archBuilder {
	oh := (b.h-k)/stride + 1
	ow := (b.w-k)/stride + 1
	out := int64(b.c) * int64(oh) * int64(ow)
	b.a.Layers = append(b.a.Layers, LayerStat{
		Name: name, Class: ClassOther, MACs: out * int64(k) * int64(k),
		InElems: int64(b.c) * int64(b.h) * int64(b.w), OutElems: out,
	})
	b.h, b.w = oh, ow
	return b
}

func (b *archBuilder) dense(name string, out int) *archBuilder {
	in := int64(b.c) * int64(b.h) * int64(b.w)
	b.a.Layers = append(b.a.Layers, LayerStat{
		Name: name, Class: ClassLinear,
		MACs:    in * int64(out),
		InElems: in, OutElems: int64(out),
		Params: in*int64(out) + int64(out),
	})
	b.c, b.h, b.w = out, 1, 1
	return b
}

func (b *archBuilder) addResidual(name string, n int64) *archBuilder {
	b.a.Layers = append(b.a.Layers, LayerStat{
		Name: name, Class: ClassOther, MACs: n, InElems: 2 * n, OutElems: n,
	})
	return b
}

// VGG16Arch is the 224×224 ImageNet VGG16 (Simonyan & Zisserman) —
// 138 M parameters, ~15.5 G forward MACs.
func VGG16Arch() *Arch {
	b := newArchBuilder("VGG16", 3, 224, 224)
	block := func(stage string, convs, outC int) {
		for i := 0; i < convs; i++ {
			name := stage + "_conv" + string(rune('1'+i))
			b.conv(name, outC, 3, 1, 1, 1).relu(name + "_relu")
		}
		b.maxPool(stage+"_pool", 2, 2)
	}
	block("b1", 2, 64)
	block("b2", 2, 128)
	block("b3", 3, 256)
	block("b4", 3, 512)
	block("b5", 3, 512)
	b.dense("fc6", 4096).relu("fc6_relu")
	b.dense("fc7", 4096).relu("fc7_relu")
	b.dense("fc8", 1000)
	return b.a
}

// ResNet50Arch is the 224×224 ImageNet ResNet-50 (He et al.) —
// ~25.5 M parameters, ~4.1 G forward MACs.
func ResNet50Arch() *Arch {
	b := newArchBuilder("ResNet50", 3, 224, 224)
	b.conv("stem_conv", 64, 7, 2, 3, 1).bn("stem_bn").relu("stem_relu")
	b.maxPool("stem_pool", 3, 2)
	bottleneck := func(name string, mid, out, stride int, project bool) {
		inC, inH, inW := b.c, b.h, b.w
		b.conv(name+"_c1", mid, 1, 1, 0, 1).bn(name + "_bn1").relu(name + "_r1")
		b.conv(name+"_c2", mid, 3, stride, 1, 1).bn(name + "_bn2").relu(name + "_r2")
		b.conv(name+"_c3", out, 1, 1, 0, 1).bn(name + "_bn3")
		if project {
			// Shortcut projection conv operates on the block input.
			oh := (inH-1)/stride + 1
			ow := (inW-1)/stride + 1
			b.a.Layers = append(b.a.Layers, LayerStat{
				Name: name + "_proj", Class: ClassLinear,
				MACs:     int64(out) * int64(oh) * int64(ow) * int64(inC),
				InElems:  int64(inC) * int64(inH) * int64(inW),
				OutElems: int64(out) * int64(oh) * int64(ow),
				Params:   int64(out)*int64(inC) + int64(out),
			})
			b.bn(name + "_projbn")
		}
		b.addResidual(name+"_add", int64(b.c)*int64(b.h)*int64(b.w))
		b.relu(name + "_rout")
	}
	stage := func(prefix string, blocks, mid, out, stride int) {
		for i := 0; i < blocks; i++ {
			s := 1
			if i == 0 {
				s = stride
			}
			bottleneck(prefix+"_b"+string(rune('1'+i)), mid, out, s, i == 0)
		}
	}
	stage("s1", 3, 64, 256, 1)
	stage("s2", 4, 128, 512, 2)
	stage("s3", 6, 256, 1024, 2)
	stage("s4", 3, 512, 2048, 2)
	b.avgPool("gap", b.h, 1)
	b.dense("fc", 1000)
	return b.a
}

// MobileNetV1Arch is the 224×224 ImageNet MobileNetV1 (Howard et al.) —
// ~4.2 M parameters, ~570 M forward MACs. Used by the inference
// comparison (Fig 6a, which evaluates MobileNetV1 like Slalom does).
func MobileNetV1Arch() *Arch {
	b := newArchBuilder("MobileNetV1", 3, 224, 224)
	b.conv("stem", 32, 3, 2, 1, 1).bn("stem_bn").relu("stem_relu")
	dws := func(name string, outC, stride int) {
		b.conv(name+"_dw", b.c, 3, stride, 1, b.c).bn(name + "_dwbn").relu(name + "_dwrelu")
		b.conv(name+"_pw", outC, 1, 1, 0, 1).bn(name + "_pwbn").relu(name + "_pwrelu")
	}
	dws("d1", 64, 1)
	dws("d2", 128, 2)
	dws("d3", 128, 1)
	dws("d4", 256, 2)
	dws("d5", 256, 1)
	dws("d6", 512, 2)
	for i := 0; i < 5; i++ {
		dws("d7"+string(rune('a'+i)), 512, 1)
	}
	dws("d8", 1024, 2)
	dws("d9", 1024, 1)
	b.avgPool("gap", b.h, 1)
	b.dense("fc", 1000)
	return b.a
}

// MobileNetV2Arch is the 224×224 ImageNet MobileNetV2 (Sandler et al.) —
// ~3.4 M parameters, ~300 M forward MACs; the paper's worst case for GPU
// offload because depthwise separable convs shrink the linear fraction.
func MobileNetV2Arch() *Arch {
	b := newArchBuilder("MobileNetV2", 3, 224, 224)
	b.conv("stem", 32, 3, 2, 1, 1).bn("stem_bn").relu("stem_relu")
	invRes := func(name string, expand, outC, stride int) {
		inC := b.c
		residual := stride == 1 && inC == outC
		mid := inC * expand
		if expand != 1 {
			b.conv(name+"_exp", mid, 1, 1, 0, 1).bn(name + "_expbn").relu(name + "_exprelu")
		}
		b.conv(name+"_dw", mid, 3, stride, 1, mid).bn(name + "_dwbn").relu(name + "_dwrelu")
		b.conv(name+"_proj", outC, 1, 1, 0, 1).bn(name + "_projbn")
		if residual {
			b.addResidual(name+"_add", int64(b.c)*int64(b.h)*int64(b.w))
		}
	}
	type cfg struct{ t, c, n, s int }
	for bi, cf := range []cfg{
		{1, 16, 1, 1}, {6, 24, 2, 2}, {6, 32, 3, 2}, {6, 64, 4, 2},
		{6, 96, 3, 1}, {6, 160, 3, 2}, {6, 320, 1, 1},
	} {
		for i := 0; i < cf.n; i++ {
			s := 1
			if i == 0 {
				s = cf.s
			}
			invRes("ir"+string(rune('1'+bi))+"_"+string(rune('a'+i)), cf.t, cf.c, s)
		}
	}
	b.conv("head", 1280, 1, 1, 0, 1).bn("head_bn").relu("head_relu")
	b.avgPool("gap", b.h, 1)
	b.dense("fc", 1000)
	return b.a
}
