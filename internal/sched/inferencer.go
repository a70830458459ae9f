package sched

import (
	"darknight/internal/enclave"
	"darknight/internal/nn"
	"darknight/internal/tensor"
)

// Inferencer is the synchronous face of a one-lane Pipeline — submit, wait
// — for callers that run one virtual batch at a time (benchmarks, probes).
// Everything else a caller may want (Gang, EnableRecovery, PhaseStats,
// Close; classes, spans, deadlines and culprits via Submit, SubmitWithin
// and the Ticket) is the Pipeline's.
type Inferencer struct{ *Pipeline }

// NewInferencer wires a depth-1 Pipeline around a model replica; see
// NewPipeline. The string is unused: it remains only because the benchmark
// harness under bench/ still passes it.
func NewInferencer(cfg Config, model *nn.Model, encl *enclave.Enclave, _ string) (*Inferencer, error) {
	p, err := NewPipeline(cfg, model, encl, "", 1)
	if err != nil {
		return nil, err
	}
	return &Inferencer{p}, nil
}

// Forward runs the masked forward pass for exactly K images on the given
// fleet and returns the per-image logits. The fleet must offer at least
// K+M+E devices (a gang grant or a whole cluster).
//
//lint:ignore testonly called by bench/benchkit; retarget in a benchmark PR (ROADMAP 1b/12)
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
