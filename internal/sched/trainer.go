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

	"darknight/internal/dataset"
	"darknight/internal/enclave"
	"darknight/internal/field"
	"darknight/internal/gpu"
	"darknight/internal/masking"
	"darknight/internal/nn"
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
	// verification; 1 is the paper's scheme). E >= 1 detects a tampered
	// forward response; E >= 2 also names it and, with EnableRecovery,
	// decodes around it. The backward pass is verified only with
	// StragglerSlack >= 1, and then only when both its decode windows
	// complete.
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
	// requires Redundancy >= 2. 0 waits for every device. Each absent
	// response spends one redundant equation: the forward pass names a
	// culprit only while two checks are present, which slack <= E-2
	// guarantees. On the backward pass any slack with Redundancy >= 1 ships
	// both decode windows and decodes from whichever completes first. Slack
	// 0 ships one backward window, which is not verified: a device that
	// tampers only with gradients goes unseen.
	StragglerSlack int
	// Deprecated: FuseBlocks has no effect. Every runtime flies each
	// virtual batch — every offload of both passes — as one gang flight.
	// The field remains only because the benchmark harness under bench/
	// still sets it.
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

// Trainer is the synchronous face of a one-lane TrainPipeline bound to one
// cluster — the way Inferencer wraps Pipeline — for callers that train on a
// single device set (benchmarks, experiments, small tests). Everything else a
// caller may want (PhaseStats, CacheRefills, EnableRecovery, SetTracer,
// SetObserver, Close) is the TrainPipeline's.
type Trainer struct {
	*TrainPipeline
	src GangSource
}

// NewTrainer wires a depth-1 TrainPipeline dispatching on cluster. The
// enclave may be nil, in which case memory accounting is skipped (used by
// small tests).
func NewTrainer(cfg Config, model *nn.Model, cluster *gpu.Cluster, encl *enclave.Enclave) (*Trainer, error) {
	if err := cfg.withDefaults().Validate(cluster.Size()); err != nil {
		return nil, err
	}
	p, err := NewTrainPipeline(cfg, model, encl, "", 1)
	if err != nil {
		return nil, err
	}
	return &Trainer{TrainPipeline: p, src: SingleFleetSource{F: cluster}}, nil
}

// TrainLargeBatch trains on len(batch) examples on the trainer's cluster;
// see TrainPipeline.TrainLargeBatch.
func (t *Trainer) TrainLargeBatch(batch []dataset.Example, opt *nn.SGD, shardElems int) (float64, AggregationStats, error) {
	return t.TrainPipeline.TrainLargeBatch(t.src, batch, opt, shardElems)
}

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
