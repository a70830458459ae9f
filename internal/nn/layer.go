// Package nn is a from-scratch CPU deep-learning framework: the substrate
// the paper builds on top of Keras/TF/DNNL/Eigen. It provides the layers,
// losses and optimizer used both by the float reference path (the paper's
// "Raw Data" baseline) and by DarKnight's quantized masked path, plus
// analytic per-layer operation statistics that drive the performance model.
//
// Layers process one example at a time (CHW tensors without a batch
// dimension); batch semantics live in the training loops. Layers cache
// forward state for the following Backward call and are therefore not safe
// for concurrent use — clone the model per goroutine instead.
package nn

import (
	"darknight/internal/field"
	"darknight/internal/tensor"
)

// OpClass buckets layers by the execution category the paper's breakdown
// tables use (Table 1, Table 3): bilinear ops are offloadable to GPUs,
// everything else stays in the TEE.
type OpClass int

const (
	// ClassLinear marks bilinear ops (conv, dense) — GPU-offloadable.
	ClassLinear OpClass = iota
	// ClassReLU marks rectifier activations — TEE-resident.
	ClassReLU
	// ClassMaxPool marks max pooling — TEE-resident.
	ClassMaxPool
	// ClassBatchNorm marks normalization — TEE-resident and expensive
	// (the reason ResNet/MobileNet gain less, §7.1).
	ClassBatchNorm
	// ClassOther marks cheap glue (flatten, avgpool, residual add).
	ClassOther
)

// String names the class for reports.
func (c OpClass) String() string {
	switch c {
	case ClassLinear:
		return "Linear"
	case ClassReLU:
		return "ReLU"
	case ClassMaxPool:
		return "MaxPool"
	case ClassBatchNorm:
		return "BatchNorm"
	default:
		return "Other"
	}
}

// LayerStat is the analytic cost record of one layer at one geometry:
// multiply-accumulates for the forward pass, element counts for
// communication/memory modelling, and parameter count.
type LayerStat struct {
	Name     string
	Class    OpClass
	MACs     int64 // forward multiply-accumulates
	InElems  int64
	OutElems int64
	Params   int64
}

// Param is one learnable tensor with its gradient accumulator.
type Param struct {
	Name string
	W    *tensor.Tensor
	Grad *tensor.Tensor
}

// ZeroGrad clears the accumulated gradient.
func (p *Param) ZeroGrad() { p.Grad.Zero() }

// Layer is the single-example building block of a model.
type Layer interface {
	Name() string
	// OutShape returns the layer's output geometry.
	OutShape() []int
	// Forward computes the layer output. train toggles training-time
	// behaviour (batch-norm statistics) and caches whatever Backward needs;
	// an inference forward caches nothing.
	Forward(x *tensor.Tensor, train bool) *tensor.Tensor
	// Backward consumes the gradient w.r.t. the output, accumulates
	// parameter gradients, and returns the gradient w.r.t. the input.
	Backward(gout *tensor.Tensor) *tensor.Tensor
	// Params lists the learnable tensors (empty for stateless layers).
	Params() []*Param
	// Stats returns the analytic cost records (one per primitive op;
	// composite layers return several).
	Stats() []LayerStat
}

// Resident is implemented by the layers DarKnight keeps inside the TEE
// (ReLU, MaxPool, AvgPool, BatchNorm, Flatten): both passes write into a
// tensor the caller supplies, so a runtime can hold a virtual batch's
// activations and gradients in memory it recycles (internal/sched's lane
// batch memory). Forward is ForwardInto on a fresh tensor, and Backward is
// BackwardInto on a fresh tensor and the input of the last training
// forward.
type Resident interface {
	Layer
	// ForwardInto writes the layer's output for x into dst, a tensor of the
	// output's size whose every element is overwritten. In training mode
	// it keeps x for Backward and folds a batch norm's statistics into the
	// running ones; in inference mode it records nothing, so an evaluation
	// between a training forward and its Backward leaves that Backward's
	// gradient alone.
	ForwardInto(dst, x *tensor.Tensor, train bool)
	// BackwardInto writes into dst, a tensor of the input's size whose
	// every element is overwritten, the gradient with respect to x of a
	// training forward of x whose output gradient is gout, and accumulates
	// the layer's parameter gradients. Everything it needs — ReLU's signs,
	// MaxPool's maxima, BatchNorm's statistics — it derives from x, so the
	// backward of any example needs only that example's input.
	BackwardInto(dst, x, gout *tensor.Tensor)
}

// Linear is implemented by the bilinear layers (Dense, Conv2D) whose heavy
// math DarKnight offloads to GPUs on coded data. The field-domain methods
// are *pure*: they take quantized weights and inputs explicitly so that
// simulated GPU workers can run them on coded vectors they were handed,
// exactly as real GPUs would run DNNL/cuBLAS kernels on masked tensors.
type Linear interface {
	Layer
	// InLen/OutLen/WLen are the flat element counts of the linear op.
	InLen() int
	OutLen() int
	WLen() int
	// LinearForwardField computes the pure linear part (NO bias) over
	// F_p: y = <Wq, x>. Bias is added inside the TEE after decoding —
	// adding it per coded input would not survive the linear decode.
	LinearForwardField(wq, x field.Vec) field.Vec
	// GradWeightsField computes the flattened bilinear weight-gradient
	// product <delta, x> over F_p (the Eq_j kernel of the backward pass).
	GradWeightsField(delta, x field.Vec) field.Vec
	// LinearForwardFloat computes the same linear part in float, used by
	// the honest-GPU float fast path and by tests as the oracle.
	LinearForwardFloat(x []float64) []float64
	// BackwardInputOnly writes dL/dx into dst, a tensor of the input's
	// size whose every element is overwritten, without touching parameter
	// gradients (the masked path obtains dW from the coded decode
	// instead).
	BackwardInputOnly(dst, gout *tensor.Tensor)
	// WeightData exposes the flat weight slice for quantization.
	WeightData() []float64
	// BiasData exposes the flat bias slice (nil if no bias).
	BiasData() []float64
	// AddGradW accumulates a flat dW (same layout as WeightData) into the
	// layer's weight gradient, scaled by s.
	AddGradW(dw []float64, s float64)
	// AddGradB accumulates the bias gradient derived from gout.
	AddGradB(gout *tensor.Tensor, s float64)
}

func prod(shape []int) int64 {
	n := int64(1)
	for _, d := range shape {
		n *= int64(d)
	}
	return n
}
