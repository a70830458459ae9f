// Package sched is the DarKnight runtime: it orchestrates the §3.1 flow
// across the enclave, the masking code and the GPU cluster.
//
// Training one virtual batch of K examples (forward):
//
//  1. the TEE walks the model's layers with K per-example activations;
//  2. at every bilinear layer it quantizes the K inputs, encodes them into
//     S+E coded vectors (masking.Code), and fans them out to the GPUs;
//  3. GPUs run the layer's field kernel on their coded input (caching it
//     for the backward pass, §6) and return coded results;
//  4. the TEE optionally verifies integrity, decodes, restores floats,
//     adds the bias and continues;
//  5. non-linear layers (ReLU, MaxPool, BatchNorm, ...) run inside the TEE.
//
// Backward mirrors it with the Eq (4) coding: GPUs compute one gradient
// equation each against the coded inputs they stored during forward, and
// the TEE folds them with its secret γ into the exact batch gradient.
// Large batches aggregate ▽W across virtual batches with sealed eviction
// (Algorithm 2) in aggregate.go.
package sched

import (
	"fmt"
	"time"

	"darknight/internal/dataset"
	"darknight/internal/enclave"
	"darknight/internal/field"
	"darknight/internal/gpu"
	"darknight/internal/masking"
	"darknight/internal/nn"
	"darknight/internal/obs"
	"darknight/internal/quant"
	"darknight/internal/tensor"
)

// Config selects the privacy/integrity operating point.
type Config struct {
	// VirtualBatch is K, the number of inputs coded together (2–6 in the
	// paper, bounded by SGX memory).
	VirtualBatch int
	// Collusion is M, the tolerated coalition size (defaults to 1).
	Collusion int
	// Redundancy is E, extra coded inputs for integrity (0 disables
	// verification; 1 is the paper's scheme).
	Redundancy int
	// FracBits is the fixed-point precision l (defaults to
	// quant.DefaultFracBits = 8).
	FracBits uint
	// NormLimit bounds |activation| before quantization via dynamic
	// max-abs normalization (the paper's VGG-style normalization).
	// <= 0 selects the default of 1.0.
	NormLimit float64
	// StragglerSlack lets a forward dispatch return before its slowest
	// devices: the decode proceeds once all but StragglerSlack coded
	// responses have arrived (the MDS property — any S of the S+E
	// responses decode exactly). At least one redundant equation is always
	// retained for verification, so the effective slack is
	// min(StragglerSlack, Redundancy-1); straggler tolerance therefore
	// requires Redundancy >= 2. 0 waits for every device. On the backward
	// pass any slack with Redundancy >= 1 ships both decode windows and
	// decodes from whichever completes first.
	StragglerSlack int
	// FuseBlocks enables the fused-offload compile pass: maximal runs of
	// directly consecutive bilinear layers are grouped into blocks
	// (nn.CompileFusion) and each block is dispatched as a single gang
	// flight instead of one flight per layer. The per-layer coding math —
	// encode, verify, decode, requantize — is unchanged at every layer
	// boundary inside a block, so fused outputs are bit-identical to
	// unfused ones; only what a flight costs (fleet handles, device launch
	// latency) is amortized across the block.
	FuseBlocks bool
	// Seed drives all randomness (coding coefficients, noise).
	Seed int64
}

func (c Config) withDefaults() Config {
	if c.FracBits == 0 {
		c.FracBits = quant.DefaultFracBits
	}
	if c.NormLimit <= 0 {
		c.NormLimit = 1.0
	}
	if c.Collusion == 0 {
		c.Collusion = 1
	}
	return c
}

// Validate checks the configuration against a cluster size.
func (c Config) Validate(clusterSize int) error {
	p := c.maskParams()
	if err := p.Validate(); err != nil {
		return err
	}
	if p.GPUs() > clusterSize {
		return fmt.Errorf("sched: config needs K+M+E = %d GPUs, cluster has %d (paper rule K+M+1 <= K')",
			p.GPUs(), clusterSize)
	}
	return nil
}

func (c Config) maskParams() masking.Params {
	return masking.Params{K: c.VirtualBatch, M: c.Collusion, Redundancy: c.Redundancy}
}

// ErrIntegrity is returned (wrapped) when GPU results fail verification.
var ErrIntegrity = masking.ErrIntegrity

// Trainer drives private training of one model on one cluster. It is the
// forward engine plus everything training adds on top: the backward walk,
// gradient offload and Algorithm 2 aggregation.
type Trainer struct {
	engine
	// store seals per-virtual-batch gradient shards (Algorithm 2).
	store *gradStore
	// tracer, when non-nil, samples per-virtual-batch trace spans.
	tracer *obs.Tracer
}

// NewTrainer wires a trainer. The enclave may be nil, in which case memory
// accounting is skipped (used by small tests).
func NewTrainer(cfg Config, model *nn.Model, cluster *gpu.Cluster, encl *enclave.Enclave) (*Trainer, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(cluster.Size()); err != nil {
		return nil, err
	}
	return &Trainer{engine: newEngine(cfg, model, cluster, encl, ""), store: newGradStore(encl)}, nil
}

// Config returns the effective configuration.
func (t *Trainer) Config() Config { return t.cfg }

// Model returns the model under training.
func (t *Trainer) Model() *nn.Model { return t.model }

// PhaseStats returns the trainer's cumulative encode/dispatch/decode
// latency breakdown across forward AND backward offloads, plus Wall — the
// summed per-virtual-batch wall-clock, so Overlap() is meaningful on the
// training path (≈1.0 on this serial trainer).
func (t *Trainer) PhaseStats() PhaseStats { return t.phases }

// CacheRefills counts backward dispatches whose device-side coded-input
// cache had to be re-created from the trace (a device was replaced or
// reshuffled between the forward and backward passes).
func (t *Trainer) CacheRefills() int64 { return t.refills }

// SetObserver attaches a flight recorder: backward cache refills and
// integrity verdicts are recorded as they happen.
func (t *Trainer) SetObserver(rec *obs.FlightRecorder) { t.rec = rec }

// SetTracer attaches a sampling tracer: each sampled virtual batch
// (TrainVirtualBatch or Predict) produces a root span carrying its
// offload encode/dispatch/decode trees.
func (t *Trainer) SetTracer(tr *obs.Tracer) { t.tracer = tr }

// trace records one layer's forward pass for the backward walk.
type trace struct {
	layer    nn.Layer
	inputs   []*tensor.Tensor // per-example inputs to this layer
	children []*trace         // Sequential children, or Residual {body, skip}
	key      string           // GPU storage key (linear layers only)
	// noise holds the masking noise rows of this layer's forward encode
	// (training mode only): the one encode ingredient that cannot be
	// recomputed, kept so a backward cache miss can re-create the coded
	// inputs bit-identically (engine.refillStores).
	noise []field.Vec
	// blockLen, when > 1, marks this trace as the LAST layer of a fused
	// block of that depth: the backward walk over the parent Sequential's
	// children recognizes the run ending here and offloads its gradient
	// equations through one flight (offloadBackward).
	blockLen int
}

// TrainVirtualBatch runs one masked forward+backward over exactly K
// examples, accumulating the SUMMED gradients into the model's params.
// Returns the mean loss. Callers average the grads and step the optimizer
// (see TrainLargeBatch).
func (t *Trainer) TrainVirtualBatch(examples []dataset.Example) (float64, error) {
	k := t.cfg.VirtualBatch
	if len(examples) != k {
		return 0, fmt.Errorf("sched: virtual batch needs exactly %d examples, got %d", k, len(examples))
	}
	t0 := time.Now()
	defer func() { t.phases.Wall += time.Since(t0) }()
	sp := t.tracer.Start("train.vbatch")
	t.sp = sp
	defer func() { t.sp = nil; sp.End() }()
	t.beginStep()
	code, err := masking.New(t.cfg.maskParams(), t.rng)
	if err != nil {
		return 0, err
	}
	xs := make([]*tensor.Tensor, k)
	for i := range examples {
		xs[i] = tensor.FromSlice(examples[i].Image, t.model.InShape...)
	}
	logits, tr, err := t.forwardLayer(code, t.model.Stack, xs, true)
	if err != nil {
		return 0, err
	}
	var total float64
	grads := make([]*tensor.Tensor, k)
	for i := range logits {
		loss, g := nn.SoftmaxCrossEntropy(logits[i], examples[i].Label)
		total += loss
		grads[i] = g
	}
	if err := t.backward(code, tr, grads); err != nil {
		return 0, err
	}
	return total / float64(k), nil
}

// Forward runs the masked forward pass for a virtual batch of images and
// returns the per-image logits — the lane-less, token-less reference the
// Pipeline's outputs are pinned against.
func (t *Trainer) Forward(images [][]float64) ([]*tensor.Tensor, error) {
	k := t.cfg.VirtualBatch
	if len(images) != k {
		return nil, fmt.Errorf("sched: predict needs exactly %d images, got %d", k, len(images))
	}
	t0 := time.Now()
	defer func() { t.phases.Wall += time.Since(t0) }()
	sp := t.tracer.Start("predict")
	t.sp = sp
	defer func() { t.sp = nil; sp.End() }()
	t.beginStep()
	code, err := masking.New(t.cfg.maskParams(), t.rng)
	if err != nil {
		return nil, err
	}
	xs := make([]*tensor.Tensor, k)
	for i := range images {
		xs[i] = tensor.FromSlice(images[i], t.model.InShape...)
	}
	logits, _, err := t.forwardLayer(code, t.model.Stack, xs, false)
	return logits, err
}

// Predict classifies a virtual batch of images: Forward, then the argmax
// per image. Forward-only — the inference flow the paper compares against
// Slalom (§7.2).
func (t *Trainer) Predict(images [][]float64) ([]int, error) {
	logits, err := t.Forward(images)
	if err != nil {
		return nil, err
	}
	out := make([]int, len(logits))
	for i := range logits {
		out[i] = nn.Argmax(logits[i])
	}
	return out, nil
}

// sharedNormFactor returns the common dynamic-normalization divisor for a
// set of tensors: max(1, max_i MaxAbs(x_i)/limit).
func sharedNormFactor(xs []*tensor.Tensor, limit float64) float64 {
	m := 0.0
	for _, x := range xs {
		if v := x.MaxAbs(); v > m {
			m = v
		}
	}
	f := m / limit
	if f < 1 {
		return 1
	}
	return f
}

func maxAbs(xs []float64) float64 {
	m := 0.0
	for _, v := range xs {
		if v < 0 {
			v = -v
		}
		if v > m {
			m = v
		}
	}
	return m
}

// addBias adds a per-channel (conv) or per-element (dense) bias in place.
func addBias(y []float64, bias []float64, outShape []int) {
	if bias == nil {
		return
	}
	if len(bias) == len(y) {
		for i := range y {
			y[i] += bias[i]
		}
		return
	}
	// Conv layout: [C, H, W] with one bias per channel.
	plane := len(y) / len(bias)
	for c := range bias {
		b := bias[c]
		seg := y[c*plane : (c+1)*plane]
		for i := range seg {
			seg[i] += b
		}
	}
}
