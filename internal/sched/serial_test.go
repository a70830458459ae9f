package sched

import (
	"fmt"
	"sync"

	"darknight/internal/dataset"
	"darknight/internal/enclave"
	"darknight/internal/gpu"
	"darknight/internal/masking"
	"darknight/internal/nn"
	"darknight/internal/tensor"
)

// serialRef is the lane-less reference the runtime's equivalence pins
// compare against: one engine bound to one cluster, walking forward and
// backward and aggregating Algorithm 2 in a plain loop — no lanes, no shared
// token, no noise pool, no gradient redirection, and no batch flight: every
// bilinear layer flies alone. Its token is a private mutex it holds for
// every batch, so the engine's gather releases and re-acquires it exactly as
// a lane's would, with nobody to contend.
type serialRef struct {
	engine
	token sync.Mutex
	store *gradStore
}

func newSerialRef(cfg Config, model *nn.Model, cluster *gpu.Cluster, encl *enclave.Enclave) (*serialRef, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(cluster.Size()); err != nil {
		return nil, err
	}
	s := &serialRef{engine: newEngine(cfg, model, encl, ""), store: newGradStore(encl)}
	s.fleet = cluster
	s.tee = &s.token
	return s, nil
}

// perLayer keeps every lane from opening a batch flight, so each bilinear
// layer flies alone: the per-layer arm of the one-flight-per-batch
// equivalence pins. Call before the first batch.
func (l *lanes) perLayer() {
	for _, lane := range l.all {
		lane.perLayer = true
	}
}

// run opens a fresh step and a fresh code, then runs walk under the token;
// the batch's device stores are dropped once it has released the token.
func (s *serialRef) run(n int, walk func(*masking.Code) error) error {
	if k := s.cfg.VirtualBatch; n != k {
		return fmt.Errorf("sched: virtual batch needs exactly %d inputs, got %d", k, n)
	}
	s.beginStep()
	code, err := masking.New(s.cfg.maskParams(), s.rng)
	if err != nil {
		return err
	}
	defer s.endBatchFlight()
	s.token.Lock()
	defer s.token.Unlock()
	return walk(code)
}

// forward runs the masked forward pass for exactly K images.
func (s *serialRef) forward(images [][]float64) ([]*tensor.Tensor, error) {
	var logits []*tensor.Tensor
	err := s.run(len(images), func(code *masking.Code) error {
		xs := make([]*tensor.Tensor, len(images))
		for i := range images {
			xs[i] = tensor.FromSlice(images[i], s.model.InShape...)
		}
		var err error
		logits, _, err = s.forwardLayer(code, s.model.Stack, xs, false)
		return err
	})
	return logits, err
}

// trainVirtualBatch runs one masked forward+backward over exactly K
// examples, accumulating the summed gradients into the model's params, and
// returns the mean loss.
func (s *serialRef) trainVirtualBatch(examples []dataset.Example) (float64, error) {
	var total float64
	err := s.run(len(examples), func(code *masking.Code) error {
		xs := make([]*tensor.Tensor, len(examples))
		for i := range examples {
			xs[i] = tensor.FromSlice(examples[i].Image, s.model.InShape...)
		}
		logits, tr, err := s.forwardLayer(code, s.model.Stack, xs, true)
		if err != nil {
			return err
		}
		grads := make([]*tensor.Tensor, len(examples))
		for i := range logits {
			loss, g := nn.SoftmaxCrossEntropy(logits[i], examples[i].Label)
			total += loss
			grads[i] = g
		}
		return s.backward(code, tr, grads)
	})
	return total / float64(len(examples)), err
}

// trainLargeBatch is Algorithm 2 as a plain loop: floor(N/K) virtual
// batches, each one's ▽W sealed shard-wise, then one aggregated SGD step.
func (s *serialRef) trainLargeBatch(batch []dataset.Example, opt *nn.SGD, shardElems int) (float64, AggregationStats, error) {
	k := s.cfg.VirtualBatch
	var stats AggregationStats
	if len(batch) < k {
		return 0, stats, fmt.Errorf("sched: large batch %d smaller than virtual batch %d", len(batch), k)
	}
	stats.DroppedExamples = len(batch) % k
	params := s.model.Params()
	totalElems := 0
	for _, p := range params {
		totalElems += p.W.Size()
	}
	if shardElems <= 0 {
		shardElems = totalElems
	}
	var handles [][]uint64
	var totalLoss float64
	for start := 0; start+k <= len(batch); start += k {
		for _, p := range params {
			p.ZeroGrad()
		}
		loss, err := s.trainVirtualBatch(batch[start : start+k])
		if err != nil {
			s.store.discard(handles)
			return 0, stats, err
		}
		totalLoss += loss
		grads := make([]*tensor.Tensor, len(params))
		for i, p := range params {
			grads[i] = p.Grad
		}
		vbHandles, sealed, err := s.store.sealShards(putGrads(nil, grads), shardElems)
		if err != nil {
			s.store.discard(handles)
			return 0, stats, err
		}
		handles = append(handles, vbHandles)
		stats.SealedBytes += sealed
		stats.Shards = len(vbHandles)
	}
	stats.VirtualBatches = len(handles)
	agg, err := s.store.aggregate(handles, shardElems, totalElems, stats.Shards)
	if err != nil {
		return 0, stats, err
	}
	applyAggregate(params, agg, 1.0/float64(len(handles)*k), opt)
	return totalLoss / float64(len(handles)), stats, nil
}
