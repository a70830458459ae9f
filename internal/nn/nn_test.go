package nn

import (
	"math"
	"math/rand"
	"testing"

	"darknight/internal/dataset"
	"darknight/internal/tensor"
)

// numericGradCheck verifies dLoss/dx for a scalar loss = sum(layer output)
// against central finite differences at sampled coordinates.
func numericGradCheck(t *testing.T, name string, forward func() float64, x []float64, analytic []float64, rng *rand.Rand, samples int, tol float64) {
	t.Helper()
	const eps = 1e-5
	for s := 0; s < samples; s++ {
		i := rng.Intn(len(x))
		orig := x[i]
		x[i] = orig + eps
		up := forward()
		x[i] = orig - eps
		down := forward()
		x[i] = orig
		num := (up - down) / (2 * eps)
		if math.Abs(num-analytic[i]) > tol {
			t.Fatalf("%s grad[%d]: numeric %v vs analytic %v", name, i, num, analytic[i])
		}
	}
}

func sumForward(l Layer, x *tensor.Tensor) float64 {
	out := l.Forward(x, true)
	var s float64
	for _, v := range out.Data {
		s += v
	}
	return s
}

func onesLike(l Layer, x *tensor.Tensor) *tensor.Tensor {
	out := l.Forward(x, true)
	g := tensor.New(out.Shape...)
	g.Fill(1)
	return g
}

func TestDenseGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	d := NewDense("d", 7, 5, rng)
	x := tensor.New(7)
	x.RandNormal(rng, 1)
	g := onesLike(d, x)
	din := d.Backward(g)
	numericGradCheck(t, "dense/dx", func() float64 { return sumForward(d, x) },
		x.Data, din.Data, rng, 7, 1e-5)
	numericGradCheck(t, "dense/dw", func() float64 { return sumForward(d, x) },
		d.w.W.Data, d.w.Grad.Data, rng, 10, 1e-5)
	numericGradCheck(t, "dense/db", func() float64 { return sumForward(d, x) },
		d.b.W.Data, d.b.Grad.Data, rng, 5, 1e-5)
}

func TestConvLayerGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	p := tensor.ConvParams{InC: 2, OutC: 3, KH: 3, KW: 3, Stride: 1, Pad: 1,
		InH: 6, InW: 6, Groups: 1}
	c := NewConv2D("c", p, rng)
	x := tensor.New(2, 6, 6)
	x.RandNormal(rng, 1)
	g := onesLike(c, x)
	din := c.Backward(g)
	numericGradCheck(t, "conv/dx", func() float64 { return sumForward(c, x) },
		x.Data, din.Data, rng, 10, 1e-4)
	numericGradCheck(t, "conv/dw", func() float64 { return sumForward(c, x) },
		c.w.W.Data, c.w.Grad.Data, rng, 10, 1e-4)
}

func TestReLUGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	r := NewReLU("r", 20)
	x := tensor.New(20)
	x.RandNormal(rng, 1)
	g := onesLike(r, x)
	din := r.Backward(g)
	for i, v := range x.Data {
		want := 0.0
		if v > 0 {
			want = 1
		}
		if din.Data[i] != want {
			t.Fatalf("relu grad[%d] = %v for x = %v", i, din.Data[i], v)
		}
	}
}

func TestBatchNormGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	bn := NewBatchNorm("bn", 2, 4, 4)
	x := tensor.New(2, 4, 4)
	x.RandNormal(rng, 1)
	// Use a weighted loss so the normalization gradient is non-trivial
	// (sum-loss is invariant to per-channel mean, making dx ≈ 0).
	weights := tensor.New(2, 4, 4)
	weights.RandNormal(rng, 1)
	forward := func() float64 {
		out := bn.Forward(x, true)
		var s float64
		for i, v := range out.Data {
			s += v * weights.Data[i]
		}
		return s
	}
	bn.Forward(x, true)
	din := bn.Backward(weights)
	numericGradCheck(t, "bn/dx", forward, x.Data, din.Data, rng, 10, 1e-4)
	numericGradCheck(t, "bn/dgamma", forward, bn.gamma.W.Data, bn.gamma.Grad.Data, rng, 2, 1e-4)
	numericGradCheck(t, "bn/dbeta", forward, bn.beta.W.Data, bn.beta.Grad.Data, rng, 2, 1e-4)
}

func TestBatchNormInferenceUsesRunningStats(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	bn := NewBatchNorm("bn", 1, 3, 3)
	x := tensor.New(1, 3, 3)
	x.RandNormal(rng, 2)
	for i := 0; i < 50; i++ {
		bn.Forward(x, true)
	}
	trainOut := bn.Forward(x, true)
	evalOut := bn.Forward(x, false)
	// After converged running stats on a constant input, the two paths
	// agree closely.
	if !trainOut.EqualApprox(evalOut, 1e-2) {
		t.Fatal("running statistics did not converge to batch statistics")
	}
}

func TestResidualGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	p := tensor.ConvParams{InC: 2, OutC: 2, KH: 3, KW: 3, Stride: 1, Pad: 1,
		InH: 5, InW: 5, Groups: 1}
	body := NewSequential("body", NewConv2D("c1", p, rng), NewReLU("r1", 2, 5, 5))
	res := NewResidual("res", body, nil)
	x := tensor.New(2, 5, 5)
	x.RandNormal(rng, 1)
	g := onesLike(res, x)
	din := res.Backward(g)
	numericGradCheck(t, "residual/dx", func() float64 { return sumForward(res, x) },
		x.Data, din.Data, rng, 10, 1e-4)
}

func TestSoftmaxCrossEntropy(t *testing.T) {
	logits := tensor.FromSlice([]float64{2, 1, 0.1}, 3)
	loss, grad := SoftmaxCrossEntropy(logits, 0)
	if loss <= 0 || loss > 1 {
		t.Fatalf("loss = %v out of expected range", loss)
	}
	// Gradient sums to zero (softmax minus one-hot).
	var s float64
	for _, v := range grad.Data {
		s += v
	}
	if math.Abs(s) > 1e-12 {
		t.Fatalf("grad sum = %v", s)
	}
	// Numeric check.
	rng := rand.New(rand.NewSource(7))
	forward := func() float64 {
		l, _ := SoftmaxCrossEntropy(logits, 0)
		return l
	}
	numericGradCheck(t, "ce", forward, logits.Data, grad.Data, rng, 3, 1e-5)
}

func TestArgmax(t *testing.T) {
	if Argmax(tensor.FromSlice([]float64{0.1, 3, -2}, 3)) != 1 {
		t.Fatal("argmax wrong")
	}
}

func TestSGDMomentum(t *testing.T) {
	w := tensor.FromSlice([]float64{1}, 1)
	g := tensor.FromSlice([]float64{1}, 1)
	p := &Param{W: w, Grad: g}
	opt := NewSGD(0.1, 0.9)
	opt.Step([]*Param{p})
	if math.Abs(w.Data[0]-0.9) > 1e-12 {
		t.Fatalf("after step 1: %v", w.Data[0])
	}
	if g.Data[0] != 0 {
		t.Fatal("grad not cleared")
	}
	// Second step with same grad: velocity = 0.9*1 + 1 = 1.9.
	g.Data[0] = 1
	opt.Step([]*Param{p})
	if math.Abs(w.Data[0]-(0.9-0.19)) > 1e-12 {
		t.Fatalf("after step 2: %v", w.Data[0])
	}
}

func TestTinyCNNLearns(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	data := dataset.SyntheticCIFAR(rng, 300, 4, 1, 8, 8, 0.05)
	train, test := data.Split(0.8)
	m := TinyCNN(1, 8, 8, 4, rng)
	opt := NewSGD(0.05, 0.9)
	for epoch := 0; epoch < 5; epoch++ {
		train.Shuffle(rng)
		for _, b := range train.Batches(10) {
			m.TrainBatch(b, opt)
		}
	}
	if acc := m.Evaluate(test); acc < 0.9 {
		t.Fatalf("TinyCNN accuracy %.2f < 0.9", acc)
	}
}

func TestScaledModelsBuildAndStep(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	builders := []func() *Model{
		func() *Model { return VGG16Scaled(1, 8, 8, 4, 1, rng) },
		func() *Model { return ResNet50Scaled(1, 8, 8, 4, 1, rng) },
		func() *Model { return MobileNetV2Scaled(1, 8, 8, 4, 1, rng) },
	}
	data := dataset.SyntheticCIFAR(rng, 20, 4, 1, 8, 8, 0.05)
	for _, build := range builders {
		m := build()
		if m.ParamCount() == 0 {
			t.Fatalf("%s has no parameters", m.Name)
		}
		out := m.Forward(data.Items[0].Image, false)
		if out.Size() != 4 {
			t.Fatalf("%s output size %d", m.Name, out.Size())
		}
		opt := NewSGD(0.01, 0)
		l1 := m.TrainBatch(data.Items[:10], opt)
		var l2 float64
		for i := 0; i < 10; i++ {
			l2 = m.TrainBatch(data.Items[:10], opt)
		}
		if !(l2 < l1) {
			t.Fatalf("%s loss did not decrease: %v -> %v", m.Name, l1, l2)
		}
		if len(m.LinearLayers()) == 0 {
			t.Fatalf("%s exposes no linear layers", m.Name)
		}
	}
}

func TestModelStatsConsistency(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	m := ResNet50Scaled(1, 8, 8, 4, 1, rng)
	var statParams int64
	for _, s := range m.Stack.Stats() {
		statParams += s.Params
	}
	if statParams != m.ParamCount() {
		t.Fatalf("stats params %d != actual %d", statParams, m.ParamCount())
	}
}
