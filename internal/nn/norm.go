package nn

import (
	"math"

	"darknight/internal/tensor"
)

// BatchNorm normalizes each channel and applies a learnable affine
// transform. Because this framework processes one example at a time (the
// masking pipeline requires per-input tensors), training-time statistics
// are computed per example over the spatial extent (instance
// normalization) while running estimates accumulate for inference — a
// standard substitution that preserves what matters to DarKnight:
// normalization is a TEE-resident, computation-heavy non-linear op that
// caps the achievable GPU speedup for ResNet/MobileNet (paper §7.1).
type BatchNorm struct {
	name    string
	c, h, w int
	eps     float64
	mom     float64

	gamma, beta *Param

	runMean, runVar []float64
	// Log, when non-nil, takes the running-statistics updates of
	// train-mode forwards in place of the layer (see StatsLog).
	Log *StatsLog

	// forward cache
	lastIn *tensor.Tensor
	mean   []float64
	invStd []float64
	normed []float64
}

// NewBatchNorm constructs a normalization layer over [c, h, w] maps.
func NewBatchNorm(name string, c, h, w int) *BatchNorm {
	g := tensor.New(c)
	g.Fill(1)
	bn := &BatchNorm{
		name: name, c: c, h: h, w: w, eps: 1e-5, mom: 0.1,
		gamma:   &Param{Name: name + ".gamma", W: g, Grad: tensor.New(c)},
		beta:    &Param{Name: name + ".beta", W: tensor.New(c), Grad: tensor.New(c)},
		runMean: make([]float64, c),
		runVar:  make([]float64, c),
	}
	for i := range bn.runVar {
		bn.runVar[i] = 1
	}
	return bn
}

// Name implements Layer.
func (b *BatchNorm) Name() string { return b.name }

// OutShape implements Layer.
func (b *BatchNorm) OutShape() []int { return []int{b.c, b.h, b.w} }

// Params implements Layer.
func (b *BatchNorm) Params() []*Param { return []*Param{b.gamma, b.beta} }

// Stats implements Layer.
func (b *BatchNorm) Stats() []LayerStat {
	n := int64(b.c) * int64(b.h) * int64(b.w)
	return []LayerStat{{
		Name: b.name, Class: ClassBatchNorm,
		// mean + var + normalize + affine ≈ 4 passes of n MACs each
		MACs:    4 * n,
		InElems: n, OutElems: n, Params: 2 * int64(b.c),
	}}
}

// Forward implements Layer.
func (b *BatchNorm) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	plane := b.h * b.w
	out := tensor.New(b.c, b.h, b.w)
	b.lastIn = x
	b.mean = make([]float64, b.c)
	b.invStd = make([]float64, b.c)
	b.normed = make([]float64, x.Size())
	for c := 0; c < b.c; c++ {
		seg := x.Data[c*plane : (c+1)*plane]
		var mean, variance float64
		if train {
			for _, v := range seg {
				mean += v
			}
			mean /= float64(plane)
			for _, v := range seg {
				d := v - mean
				variance += d * d
			}
			variance /= float64(plane)
			if b.Log != nil {
				b.Log.updates = append(b.Log.updates, statsUpdate{b, c, mean, variance})
			} else {
				b.updateRunning(c, mean, variance)
			}
		} else {
			mean = b.runMean[c]
			variance = b.runVar[c]
		}
		inv := 1 / math.Sqrt(variance+b.eps)
		b.mean[c] = mean
		b.invStd[c] = inv
		g, be := b.gamma.W.Data[c], b.beta.W.Data[c]
		for i, v := range seg {
			n := (v - mean) * inv
			b.normed[c*plane+i] = n
			out.Data[c*plane+i] = g*n + be
		}
	}
	return out
}

// updateRunning folds one example's statistics of channel c into the
// running estimates.
func (b *BatchNorm) updateRunning(c int, mean, variance float64) {
	b.runMean[c] = (1-b.mom)*b.runMean[c] + b.mom*mean
	b.runVar[c] = (1-b.mom)*b.runVar[c] + b.mom*variance
}

// StatsLog holds batch-norm running-statistics updates back from the
// layers that made them, in the order they were made, until Apply folds
// them in. The running estimates are an exponential moving average, so
// their value depends on the order of the updates: a pipelined trainer,
// whose lanes interleave their forwards, keeps one log per virtual batch
// and applies the logs in virtual-batch order.
type StatsLog struct{ updates []statsUpdate }

type statsUpdate struct {
	b              *BatchNorm
	c              int
	mean, variance float64
}

// Apply folds the held updates into their layers' running statistics, in
// order, and empties the log.
func (l *StatsLog) Apply() {
	for _, u := range l.updates {
		u.b.updateRunning(u.c, u.mean, u.variance)
	}
	l.updates = l.updates[:0]
}

// Backward implements Layer (instance-norm gradient over the spatial
// extent, the train-mode statistics above).
func (b *BatchNorm) Backward(gout *tensor.Tensor) *tensor.Tensor {
	plane := b.h * b.w
	din := tensor.New(b.c, b.h, b.w)
	n := float64(plane)
	for c := 0; c < b.c; c++ {
		g := b.gamma.W.Data[c]
		inv := b.invStd[c]
		gseg := gout.Data[c*plane : (c+1)*plane]
		nseg := b.normed[c*plane : (c+1)*plane]

		var sumG, sumGN float64
		for i, gv := range gseg {
			sumG += gv
			sumGN += gv * nseg[i]
			// parameter grads
			b.gamma.Grad.Data[c] += gv * nseg[i]
			b.beta.Grad.Data[c] += gv
		}
		for i, gv := range gseg {
			din.Data[c*plane+i] = g * inv * (gv - sumG/n - nseg[i]*sumGN/n)
		}
	}
	return din
}
