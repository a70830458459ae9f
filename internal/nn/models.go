package nn

import (
	"fmt"
	"math/rand"

	"darknight/internal/tensor"
)

// This file builds SCALED, trainable variants of the paper's three training
// models for the accuracy experiments (Fig 4). They keep each network's
// structural signature — VGG's conv/ReLU/maxpool pyramid + FC head,
// ResNet's bottleneck residuals + batch norm, MobileNetV2's inverted
// residuals with depthwise convolutions — at a width/depth a CPU can train
// in seconds (the hardware substitution is documented in DESIGN.md).

// shapeCursor threads geometry through builders.
type shapeCursor struct{ c, h, w int }

// VGG16Scaled builds a VGG-style net: two conv blocks (conv-relu ×2 +
// maxpool) and a two-layer FC head. width scales the channel counts.
func VGG16Scaled(c, h, w, classes, width int, rng *rand.Rand) *Model {
	if width < 1 {
		panic("nn: width must be >= 1")
	}
	cur := shapeCursor{c, h, w}
	seq := NewSequential("vgg16s")
	block := func(stage string, outC int) {
		for i := 0; i < 2; i++ {
			name := fmt.Sprintf("%s_conv%d", stage, i+1)
			p := tensor.ConvParams{InC: cur.c, OutC: outC, KH: 3, KW: 3,
				Stride: 1, Pad: 1, InH: cur.h, InW: cur.w, Groups: 1}
			seq.Append(NewConv2D(name, p, rng))
			cur = shapeCursor{outC, p.OutH(), p.OutW()}
			seq.Append(NewReLU(name+"_relu", cur.c, cur.h, cur.w))
		}
		pp := tensor.PoolParams{C: cur.c, InH: cur.h, InW: cur.w, K: 2, Stride: 2}
		seq.Append(NewMaxPool(stage+"_pool", pp))
		cur = shapeCursor{cur.c, pp.OutH(), pp.OutW()}
	}
	block("b1", 4*width)
	block("b2", 8*width)
	flat := cur.c * cur.h * cur.w
	seq.Append(NewFlatten("flatten", cur.c, cur.h, cur.w))
	seq.Append(NewDense("fc1", flat, 16*width, rng))
	seq.Append(NewReLU("fc1_relu", 16*width))
	seq.Append(NewDense("fc2", 16*width, classes, rng))
	return NewModel("VGG16Scaled", []int{c, h, w}, classes, seq)
}

// ResNet50Scaled builds a ResNet-style net: stem conv + BN + ReLU, two
// bottleneck residual stages (with projection shortcuts), global average
// pooling and an FC head.
func ResNet50Scaled(c, h, w, classes, width int, rng *rand.Rand) *Model {
	if width < 1 {
		panic("nn: width must be >= 1")
	}
	cur := shapeCursor{c, h, w}
	seq := NewSequential("resnet50s")
	conv := func(name string, outC, k, stride, pad, groups int) {
		p := tensor.ConvParams{InC: cur.c, OutC: outC, KH: k, KW: k,
			Stride: stride, Pad: pad, InH: cur.h, InW: cur.w, Groups: groups}
		seq.Append(NewConv2D(name, p, rng))
		cur = shapeCursor{outC, p.OutH(), p.OutW()}
	}
	conv("stem", 4*width, 3, 1, 1, 1)
	seq.Append(NewBatchNorm("stem_bn", cur.c, cur.h, cur.w))
	seq.Append(NewReLU("stem_relu", cur.c, cur.h, cur.w))

	bottleneck := func(name string, mid, out, stride int) {
		inCur := cur
		body := NewSequential(name + "_body")
		bcur := cur
		bconv := func(n string, outC, k, s, pad int) {
			p := tensor.ConvParams{InC: bcur.c, OutC: outC, KH: k, KW: k,
				Stride: s, Pad: pad, InH: bcur.h, InW: bcur.w, Groups: 1}
			body.Append(NewConv2D(n, p, rng))
			bcur = shapeCursor{outC, p.OutH(), p.OutW()}
		}
		bconv(name+"_c1", mid, 1, 1, 0)
		body.Append(NewBatchNorm(name+"_bn1", bcur.c, bcur.h, bcur.w))
		body.Append(NewReLU(name+"_r1", bcur.c, bcur.h, bcur.w))
		bconv(name+"_c2", mid, 3, stride, 1)
		body.Append(NewBatchNorm(name+"_bn2", bcur.c, bcur.h, bcur.w))
		body.Append(NewReLU(name+"_r2", bcur.c, bcur.h, bcur.w))
		bconv(name+"_c3", out, 1, 1, 0)
		body.Append(NewBatchNorm(name+"_bn3", bcur.c, bcur.h, bcur.w))

		var skip Layer
		if stride != 1 || inCur.c != out {
			p := tensor.ConvParams{InC: inCur.c, OutC: out, KH: 1, KW: 1,
				Stride: stride, Pad: 0, InH: inCur.h, InW: inCur.w, Groups: 1}
			skip = NewConv2D(name+"_proj", p, rng)
		}
		seq.Append(NewResidual(name, body, skip))
		cur = bcur
		seq.Append(NewReLU(name+"_rout", cur.c, cur.h, cur.w))
	}
	bottleneck("s1_b1", 2*width, 8*width, 1)
	bottleneck("s1_b2", 2*width, 8*width, 1)
	bottleneck("s2_b1", 4*width, 16*width, 2)
	bottleneck("s2_b2", 4*width, 16*width, 1)

	pp := tensor.PoolParams{C: cur.c, InH: cur.h, InW: cur.w, K: cur.h, Stride: 1}
	seq.Append(NewAvgPool("gap", pp))
	cur = shapeCursor{cur.c, 1, 1}
	seq.Append(NewFlatten("flatten", cur.c, 1, 1))
	seq.Append(NewDense("fc", cur.c, classes, rng))
	return NewModel("ResNet50Scaled", []int{c, h, w}, classes, seq)
}

// MobileNetV2Scaled builds a MobileNetV2-style net: stem conv, two
// inverted-residual blocks with depthwise convolutions, head conv, global
// pooling and FC.
func MobileNetV2Scaled(c, h, w, classes, width int, rng *rand.Rand) *Model {
	if width < 1 {
		panic("nn: width must be >= 1")
	}
	cur := shapeCursor{c, h, w}
	seq := NewSequential("mobilenetv2s")
	conv := func(target *Sequential, name string, outC, k, stride, pad, groups int, sc *shapeCursor) {
		p := tensor.ConvParams{InC: sc.c, OutC: outC, KH: k, KW: k,
			Stride: stride, Pad: pad, InH: sc.h, InW: sc.w, Groups: groups}
		target.Append(NewConv2D(name, p, rng))
		*sc = shapeCursor{outC, p.OutH(), p.OutW()}
	}
	conv(seq, "stem", 4*width, 3, 1, 1, 1, &cur)
	seq.Append(NewBatchNorm("stem_bn", cur.c, cur.h, cur.w))
	seq.Append(NewReLU("stem_relu", cur.c, cur.h, cur.w))

	invRes := func(name string, expand, outC, stride int) {
		inCur := cur
		residual := stride == 1 && inCur.c == outC
		body := NewSequential(name + "_body")
		bcur := cur
		mid := inCur.c * expand
		conv(body, name+"_exp", mid, 1, 1, 0, 1, &bcur)
		body.Append(NewBatchNorm(name+"_expbn", bcur.c, bcur.h, bcur.w))
		body.Append(NewReLU(name+"_exprelu", bcur.c, bcur.h, bcur.w))
		conv(body, name+"_dw", mid, 3, stride, 1, mid, &bcur) // depthwise
		body.Append(NewBatchNorm(name+"_dwbn", bcur.c, bcur.h, bcur.w))
		body.Append(NewReLU(name+"_dwrelu", bcur.c, bcur.h, bcur.w))
		conv(body, name+"_proj", outC, 1, 1, 0, 1, &bcur)
		body.Append(NewBatchNorm(name+"_projbn", bcur.c, bcur.h, bcur.w))
		if residual {
			seq.Append(NewResidual(name, body, nil))
		} else {
			seq.Append(body)
		}
		cur = bcur
	}
	invRes("ir1", 2, 4*width, 1)
	invRes("ir2", 2, 8*width, 2)
	conv(seq, "head", 16*width, 1, 1, 0, 1, &cur)
	seq.Append(NewBatchNorm("head_bn", cur.c, cur.h, cur.w))
	seq.Append(NewReLU("head_relu", cur.c, cur.h, cur.w))

	pp := tensor.PoolParams{C: cur.c, InH: cur.h, InW: cur.w, K: cur.h, Stride: 1}
	seq.Append(NewAvgPool("gap", pp))
	seq.Append(NewFlatten("flatten", cur.c, 1, 1))
	seq.Append(NewDense("fc", cur.c, classes, rng))
	return NewModel("MobileNetV2Scaled", []int{c, h, w}, classes, seq)
}

// TinyCNN builds the smallest useful conv net (conv-relu-pool-fc), used by
// fast tests and the quickstart example.
func TinyCNN(c, h, w, classes int, rng *rand.Rand) *Model {
	cur := shapeCursor{c, h, w}
	seq := NewSequential("tiny")
	p := tensor.ConvParams{InC: c, OutC: 6, KH: 3, KW: 3, Stride: 1, Pad: 1,
		InH: h, InW: w, Groups: 1}
	seq.Append(NewConv2D("conv1", p, rng))
	cur = shapeCursor{6, p.OutH(), p.OutW()}
	seq.Append(NewReLU("relu1", cur.c, cur.h, cur.w))
	pp := tensor.PoolParams{C: cur.c, InH: cur.h, InW: cur.w, K: 2, Stride: 2}
	seq.Append(NewMaxPool("pool1", pp))
	cur = shapeCursor{cur.c, pp.OutH(), pp.OutW()}
	flat := cur.c * cur.h * cur.w
	seq.Append(NewFlatten("flatten", cur.c, cur.h, cur.w))
	seq.Append(NewDense("fc", flat, classes, rng))
	return NewModel("TinyCNN", []int{c, h, w}, classes, seq)
}

// DeepMLP builds a factorized deep MLP: the flattened input feeds two
// stacks of three consecutive Dense layers (a low-rank factorized linear
// operator — W3·W2·W1 evaluated factor by factor), each stack followed by
// one ReLU, and a Dense classifier head: 7 bilinear layers, the most
// offloads per virtual batch among the bundled models.
func DeepMLP(c, h, w, classes, width int, rng *rand.Rand) *Model {
	if width <= 0 {
		width = 16
	}
	flat := c * h * w
	seq := NewSequential("deepmlp")
	seq.Append(NewFlatten("flatten", c, h, w))
	in := flat
	for s := 1; s <= 2; s++ {
		for f := 1; f <= 3; f++ {
			seq.Append(NewDense(fmt.Sprintf("s%d_fc%d", s, f), in, width, rng))
			in = width
		}
		seq.Append(NewReLU(fmt.Sprintf("s%d_relu", s), width))
	}
	seq.Append(NewDense("head", in, classes, rng))
	return NewModel("DeepMLP", []int{c, h, w}, classes, seq)
}
