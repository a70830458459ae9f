// Package sched is the DarKnight runtime: it orchestrates the §3.1 flow
// across the enclave, the masking code and the GPU cluster.
//
// Training one virtual batch of K examples (forward):
//
//  1. the TEE walks the model's layers with K per-example activations;
//  2. at every bilinear layer it quantizes the K inputs, encodes them into
//     S+E coded vectors (masking.Code), and fans them out to the GPUs;
//  3. GPUs run the layer's field kernel on their coded input (which the
//     batch's flight keeps for the backward pass, §6) and return coded
//     results;
//  4. the TEE optionally verifies integrity, decodes, restores floats,
//     adds the bias and continues;
//  5. non-linear layers (ReLU, MaxPool, BatchNorm, ...) run inside the TEE.
//
// Backward mirrors it with the Eq (4) coding: GPUs compute one gradient
// equation each against the coded inputs they were sent during forward,
// and
// the TEE folds them with its secret γ into the exact batch gradient.
// Large batches aggregate ▽W across virtual batches with sealed eviction
// (Algorithm 2) in aggregate.go.
package sched

import (
	"fmt"

	"darknight/internal/dataset"
	"darknight/internal/enclave"
	"darknight/internal/gpu"
	"darknight/internal/masking"
	"darknight/internal/nn"
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
	// StragglerSlack lets a forward dispatch return before its slowest
	// devices: the decode proceeds once all but StragglerSlack coded
	// responses have arrived (the MDS property — any S of the S+E
	// responses decode exactly). At least one redundant equation is always
	// retained for verification, so the effective slack is
	// min(StragglerSlack, Redundancy-1); straggler tolerance therefore
	// requires Redundancy >= 2. 0 waits for every device. Each absent
	// response spends one redundant equation, and naming a culprit takes
	// two present checks: slack <= E-2 always leaves them. At slack E-1 a
	// failed check that cannot name its culprit waits for the laggards and
	// audits again over the larger set; a verdict that set cannot name
	// stays unattributed. On the backward pass any slack with Redundancy
	// >= 1 ships both decode windows and decodes from whichever completes
	// first. Slack 0 ships one backward window, which is not verified: a
	// device that tampers only with gradients goes unseen.
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
// caller may want (PhaseStats, EnableRecovery, SetTracer, SetObserver,
// Close) is the TrainPipeline's.
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
	p, err := NewTrainPipeline(cfg, model, encl, 1)
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
	// A bilinear layer's ordinal in the batch (linSeq) and its forward
	// offload, whose coded inputs its gradient jobs read.
	lin int
	fwd *gpu.LayerPending
}

// add appends a child's trace, within the room batchMem.trace made; a nil
// (inference) trace records nothing.
func (t *trace) add(child *trace) {
	if t != nil {
		t.children = append(t.children, child)
	}
}

// normLimit bounds |activation| before quantization via dynamic max-abs
// normalization (the paper's VGG-style normalization); the runtime
// quantizes at quant.DefaultFracBits.
const normLimit = 1.0

// sharedNormFactor returns the common dynamic-normalization divisor for a
// set of tensors: max(1, max_i MaxAbs(x_i)/normLimit).
func sharedNormFactor(xs []*tensor.Tensor) float64 {
	m := 0.0
	for _, x := range xs {
		if v := x.MaxAbs(); v > m {
			m = v
		}
	}
	return max(1, m/normLimit)
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
