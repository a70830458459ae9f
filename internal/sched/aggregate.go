package sched

import (
	"encoding/binary"
	"fmt"
	"math"
	"sync"

	"darknight/internal/enclave"
	"darknight/internal/nn"
	"darknight/internal/scratch"
	"darknight/internal/tensor"
)

// This file implements Algorithm 2: large-batch weight aggregation. The
// TEE computes ▽W at virtual-batch granularity, seals each ▽W_v and evicts
// it to untrusted memory (real SGX cannot hold all of them in the EPC),
// then reloads, decrypts and aggregates them shard-wise before a single
// weight update. Exposing only the large-batch aggregate also shrinks the
// gradient-leakage side channel the paper cites (§6). TrainPipeline drives
// them at every depth; the bit-identity guarantee across depths depends on
// the aggregate summing in exactly the same order whatever the lanes did.
//
// Sealing copies nothing it does not have to: a lane encodes its
// accumulators once, as little-endian float64 bytes, into a buffer it
// reuses (putGrads); each shard of that buffer is sealed into one pooled
// page (enclave.Seal), and each page is opened in place (enclave.Unseal),
// summed straight into the aggregate and handed back to the pool
// (enclave.Recycle). The sealed bytes and seal operations are those of
// sealing the floats one shard at a time.

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
// (tests, and systems configured without one), whose page copies recycle
// the same way. Handles are consume-on-unseal; discard drains abandoned
// shards so a failed large batch does not strand sealed ciphertexts
// forever. Safe for concurrent use (pipelined lanes seal concurrently).
type gradStore struct {
	encl  *enclave.Enclave
	mu    sync.Mutex
	plain map[uint64][]byte
	next  uint64
}

func newGradStore(encl *enclave.Enclave) *gradStore {
	return &gradStore{encl: encl, plain: make(map[uint64][]byte)}
}

// plainPages recycles the fallback's page copies, as the enclave's own
// pool recycles its sealed pages.
var plainPages scratch.Pool[byte]

func (s *gradStore) seal(page []byte) (uint64, error) {
	if s.encl != nil {
		return s.encl.Seal(page)
	}
	cp := plainPages.Get(len(page))
	copy(cp, page)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.next++
	s.plain[s.next] = cp
	return s.next, nil
}

func (s *gradStore) unseal(h uint64) ([]byte, error) {
	if s.encl != nil {
		return s.encl.Unseal(h)
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

// recycle hands back the page behind a plaintext unseal returned, once it
// has been read.
func (s *gradStore) recycle(page []byte) {
	if s.encl != nil {
		s.encl.Recycle(page)
		return
	}
	plainPages.Put(page)
}

// discard consumes and drops every handle — the error-path cleanup.
// Re-unsealing an already-consumed handle errors harmlessly.
func (s *gradStore) discard(handleSets [][]uint64) {
	for _, hs := range handleSets {
		for _, h := range hs {
			if page, err := s.unseal(h); err == nil {
				s.recycle(page)
			}
		}
	}
}

// putGrads encodes the tensors' data, in order, as little-endian float64
// bytes into buf, grown to fit, and returns it: one virtual batch's ▽W in
// the byte form Algorithm 2 seals.
func putGrads(buf []byte, grads []*tensor.Tensor) []byte {
	n := 0
	for _, g := range grads {
		n += 8 * len(g.Data)
	}
	if cap(buf) < n {
		buf = make([]byte, n)
	}
	buf = buf[:n]
	i := 0
	for _, g := range grads {
		for _, v := range g.Data {
			binary.LittleEndian.PutUint64(buf[i:], math.Float64bits(v))
			i += 8
		}
	}
	return buf
}

// sealShards seals one virtual batch's encoded ▽W (putGrads) shard-wise
// (Algorithm 2 lines 9–10), returning the handles and the sealed byte
// count.
func (s *gradStore) sealShards(flat []byte, shardElems int) ([]uint64, int64, error) {
	shardBytes := 8 * shardElems
	handles := make([]uint64, 0, (len(flat)+shardBytes-1)/shardBytes)
	for off := 0; off < len(flat); off += shardBytes {
		end := min(off+shardBytes, len(flat))
		h, err := s.seal(flat[off:end])
		if err != nil {
			s.discard([][]uint64{handles})
			return nil, 0, err
		}
		handles = append(handles, h)
	}
	return handles, int64(len(flat)), nil
}

// aggregate is UpdateAggregation (Algorithm 2 lines 14–21): it reloads
// every virtual batch's sealed shards and accumulates them into agg, one
// flat gradient it first zeroes — shard-outer, virtual-batch-inner, so the
// float summation order is identical however the shards were produced. On
// error the remaining handles are discarded.
func (s *gradStore) aggregate(agg []float64, handles [][]uint64, shardElems, shards int) error {
	clear(agg)
	for shard := 0; shard < shards; shard++ {
		off := shard * shardElems
		for _, vbHandles := range handles {
			page, err := s.unseal(vbHandles[shard])
			if err != nil {
				// Drain everything: re-unsealing an already-consumed handle
				// errors harmlessly, and the rest must not strand.
				s.discard(handles)
				return err
			}
			for i := 0; i+8 <= len(page); i += 8 {
				agg[off+i/8] += math.Float64frombits(binary.LittleEndian.Uint64(page[i:]))
			}
			s.recycle(page)
		}
	}
	return nil
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
