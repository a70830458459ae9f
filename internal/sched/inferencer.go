package sched

import (
	"darknight/internal/enclave"
	"darknight/internal/nn"
	"darknight/internal/tensor"
)

// Inferencer is the synchronous face of a one-lane Pipeline — submit, wait
// — for callers that run one virtual batch at a time (benchmarks, probes).
// Everything else a caller may want (Predict, Gang, EnableRecovery,
// PhaseStats, Close; spans, deadlines and culprits via SubmitWithin and
// the Ticket) is the Pipeline's.
type Inferencer struct{ *Pipeline }

// NewInferencer wires a depth-1 Pipeline around a model replica; see
// NewPipeline.
func NewInferencer(cfg Config, model *nn.Model, encl *enclave.Enclave, keyspace string) (*Inferencer, error) {
	p, err := NewPipeline(cfg, model, encl, keyspace, 1)
	if err != nil {
		return nil, err
	}
	return &Inferencer{p}, nil
}

// Forward runs the masked forward pass for exactly K images on the given
// fleet and returns the per-image logits. The fleet must offer at least
// K+M+E devices (a gang grant or a whole cluster).
func (inf *Inferencer) Forward(fleet Fleet, images [][]float64) ([]*tensor.Tensor, error) {
	t, err := inf.Submit(fleet, images)
	if err != nil {
		return nil, err
	}
	if err := t.Wait(); err != nil {
		return nil, err
	}
	return t.Logits(), nil
}
