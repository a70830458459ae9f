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
	out     []int // OutShape, built once; callers share it and never mutate it
	eps     float64
	mom     float64

	gamma, beta *Param

	runMean, runVar []float64
	// Log, when non-nil, takes the running-statistics updates of
	// train-mode forwards in place of the layer (see StatsLog).
	Log *StatsLog

	lastIn *tensor.Tensor // the input of the last training forward
}

// NewBatchNorm constructs a normalization layer over [c, h, w] maps.
func NewBatchNorm(name string, c, h, w int) *BatchNorm {
	g := tensor.New(c)
	g.Fill(1)
	bn := &BatchNorm{
		name: name, c: c, h: h, w: w, out: []int{c, h, w}, eps: 1e-5, mom: 0.1,
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
func (b *BatchNorm) OutShape() []int { return b.out }

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
	out := tensor.New(b.c, b.h, b.w)
	b.ForwardInto(out, x, train)
	return out
}

// ForwardInto implements Resident: training normalizes x by its own
// statistics and folds them into the running ones; inference normalizes by
// the running statistics.
//
//darknight:hotpath
func (b *BatchNorm) ForwardInto(dst, x *tensor.Tensor, train bool) {
	if train {
		b.lastIn = x
	}
	plane := b.h * b.w
	for c := 0; c < b.c; c++ {
		seg := x.Data[c*plane : (c+1)*plane]
		var mean, variance float64
		if train {
			mean, variance = instanceStats(seg)
			if b.Log != nil {
				b.Log.add(b, c, mean, variance)
			} else {
				b.updateRunning(c, mean, variance)
			}
		} else {
			mean = b.runMean[c]
			variance = b.runVar[c]
		}
		inv := b.invStd(variance)
		g, be := b.gamma.W.Data[c], b.beta.W.Data[c]
		out := dst.Data[c*plane : (c+1)*plane]
		for i, v := range seg {
			n := (v - mean) * inv
			out[i] = g*n + be
		}
	}
}

// instanceStats returns the mean and variance of one channel of one
// example, the statistics a training forward normalizes it by.
//
//darknight:hotpath
func instanceStats(seg []float64) (mean, variance float64) {
	for _, v := range seg {
		mean += v
	}
	mean /= float64(len(seg))
	for _, v := range seg {
		d := v - mean
		variance += d * d
	}
	return mean, variance / float64(len(seg))
}

// invStd is the normalization's divisor 1/√(variance+ε).
func (b *BatchNorm) invStd(variance float64) float64 {
	return 1 / math.Sqrt(variance+b.eps)
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

// add holds back one update of channel c of b.
func (l *StatsLog) add(b *BatchNorm, c int, mean, variance float64) {
	l.updates = append(l.updates, statsUpdate{b, c, mean, variance})
}

// Apply folds the held updates into their layers' running statistics, in
// order, and empties the log.
func (l *StatsLog) Apply() {
	for _, u := range l.updates {
		u.b.updateRunning(u.c, u.mean, u.variance)
	}
	l.updates = l.updates[:0]
}

// Discard empties the log without applying it.
func (l *StatsLog) Discard() { l.updates = l.updates[:0] }

// Backward implements Layer.
func (b *BatchNorm) Backward(gout *tensor.Tensor) *tensor.Tensor {
	din := tensor.New(b.c, b.h, b.w)
	b.BackwardInto(din, b.lastIn, gout)
	return din
}

// BackwardInto implements Resident: the instance-norm gradient over the
// spatial extent, under the statistics a training forward of x computes.
// The normalized input is staged in dst, which the gradient then
// overwrites element by element.
//
//darknight:hotpath
func (b *BatchNorm) BackwardInto(dst, x, gout *tensor.Tensor) {
	plane := b.h * b.w
	n := float64(plane)
	for c := 0; c < b.c; c++ {
		seg := x.Data[c*plane : (c+1)*plane]
		mean, variance := instanceStats(seg)
		inv := b.invStd(variance)
		g := b.gamma.W.Data[c]
		gseg := gout.Data[c*plane : (c+1)*plane]
		nseg := dst.Data[c*plane : (c+1)*plane]

		var sumG, sumGN float64
		for i, gv := range gseg {
			nseg[i] = (seg[i] - mean) * inv
			sumG += gv
			sumGN += gv * nseg[i]
			// parameter grads
			b.gamma.Grad.Data[c] += gv * nseg[i]
			b.beta.Grad.Data[c] += gv
		}
		for i, gv := range gseg {
			nseg[i] = g * inv * (gv - sumG/n - nseg[i]*sumGN/n)
		}
	}
}
