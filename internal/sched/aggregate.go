package sched

import (
	"fmt"
	"sync"

	"darknight/internal/enclave"
	"darknight/internal/nn"
)

// This file implements Algorithm 2: large-batch weight aggregation. The
// TEE computes ▽W at virtual-batch granularity, seals each ▽W_v and evicts
// it to untrusted memory (real SGX cannot hold all of them in the EPC),
// then reloads, decrypts and aggregates them shard-wise before a single
// weight update. Exposing only the large-batch aggregate also shrinks the
// gradient-leakage side channel the paper cites (§6). TrainPipeline drives
// them at every depth; the bit-identity guarantee across depths depends on
// the aggregate summing in exactly the same order whatever the lanes did.

// AggregationStats reports what Algorithm 2 did for one large batch.
type AggregationStats struct {
	VirtualBatches int
	SealedBytes    int64
	Shards         int
	// DroppedExamples counts the tail examples beyond the last full virtual
	// batch, which the coded path cannot process: DarKnight codes exactly K
	// inputs per dispatch (the paper's K-granularity constraint — a partial
	// batch would need padding rows, which training gradients cannot
	// silently carry the way inference dummy rows do). Callers that care
	// should size batches as multiples of K, or surface this count.
	DroppedExamples int
}

// gradStore seals virtual-batch gradient shards to untrusted memory —
// enclave-backed, with an in-memory fallback when no enclave is attached
// (tests). Handles are consume-on-unseal; discard drains abandoned shards
// so a failed large batch does not strand sealed ciphertexts forever.
// Safe for concurrent use (pipelined lanes seal concurrently).
type gradStore struct {
	encl  *enclave.Enclave
	mu    sync.Mutex
	plain map[uint64][]float64
	next  uint64
}

func newGradStore(encl *enclave.Enclave) *gradStore {
	return &gradStore{encl: encl, plain: make(map[uint64][]float64)}
}

func (s *gradStore) seal(vals []float64) (uint64, error) {
	if s.encl != nil {
		return s.encl.SealFloats(vals)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.next++
	s.plain[s.next] = append([]float64(nil), vals...)
	return s.next, nil
}

func (s *gradStore) unseal(h uint64) ([]float64, error) {
	if s.encl != nil {
		return s.encl.UnsealFloats(h)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	vals, ok := s.plain[h]
	if !ok {
		return nil, fmt.Errorf("sched: unknown gradient shard handle %d", h)
	}
	delete(s.plain, h)
	return vals, nil
}

// discard consumes and drops every handle — the error-path cleanup.
func (s *gradStore) discard(handleSets [][]uint64) {
	for _, hs := range handleSets {
		for _, h := range hs {
			_, _ = s.unseal(h)
		}
	}
}

// sealShards seals one virtual batch's flattened ▽W shard-wise (Algorithm
// 2 lines 9–10), returning the handles and the sealed byte count.
func (s *gradStore) sealShards(flat []float64, shardElems int) ([]uint64, int64, error) {
	var handles []uint64
	var sealed int64
	for off := 0; off < len(flat); off += shardElems {
		end := off + shardElems
		if end > len(flat) {
			end = len(flat)
		}
		h, err := s.seal(flat[off:end])
		if err != nil {
			s.discard([][]uint64{handles})
			return nil, 0, err
		}
		handles = append(handles, h)
		sealed += int64(end-off) * 8
	}
	return handles, sealed, nil
}

// aggregate is UpdateAggregation (Algorithm 2 lines 14–21): it reloads
// every virtual batch's sealed shards and accumulates them into one flat
// gradient — shard-outer, virtual-batch-inner, so the float summation
// order is identical however the shards were produced. On error the
// remaining handles are discarded.
func (s *gradStore) aggregate(handles [][]uint64, shardElems, totalElems, shards int) ([]float64, error) {
	agg := make([]float64, totalElems)
	for shard := 0; shard < shards; shard++ {
		off := shard * shardElems
		for _, vbHandles := range handles {
			vals, err := s.unseal(vbHandles[shard])
			if err != nil {
				// Drain everything: re-unsealing an already-consumed handle
				// errors harmlessly, and the rest must not strand.
				s.discard(handles)
				return nil, err
			}
			for i, v := range vals {
				agg[off+i] += v
			}
		}
	}
	return agg, nil
}

// applyAggregate writes the averaged flat gradient into the params'
// accumulators and applies one optimizer step — the single weight update
// closing Algorithm 2.
func applyAggregate(params []*nn.Param, agg []float64, inv float64, opt *nn.SGD) {
	cursor := 0
	for _, p := range params {
		n := p.W.Size()
		copy(p.Grad.Data, agg[cursor:cursor+n])
		p.Grad.Scale(inv)
		cursor += n
	}
	opt.Step(params)
}
