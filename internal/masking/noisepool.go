package masking

import (
	"math/rand"
	"sync"
	"sync/atomic"

	"darknight/internal/field"
)

// This file implements the offline half of the offline/online split the
// paper sketches for the TEE's coding work: the M uniform noise rows mixed
// into every encode (Eq 1 / Eq 10) do not depend on the data, so they can be
// drawn entirely off the critical path. A NoisePool is a seeded background
// generator that pre-draws per-layer noise sets into a bounded ring; the
// online encode then consumes precomputed material with zero RNG work —
// pure memory traffic — and falls back to inline draws (counted as misses)
// only when the ring runs dry.

// NoiseSet is one pre-drawn bundle of noise material: the M uniform rows of
// a single offloaded layer, all of that layer's input length. The rows are
// reusable ring buffers — the consumer must hand the set back with Recycle
// once EncodeWith has consumed it, after which the refiller overwrites the
// rows with fresh uniform draws.
type NoiseSet struct {
	// Rows are the M noise vectors, ready to pass to EncodeWith.
	Rows []field.Vec
	n    int // row length (the layer's input length)
}

// NoisePoolStats counts the pool's online behaviour.
type NoisePoolStats struct {
	// Hits is how many Get calls were served from precomputed material.
	Hits int64
	// Misses is how many Get calls found the ring empty (or out of phase)
	// and left the caller to draw inline.
	Misses int64
	// Refills is how many sets the background generator has drawn.
	Refills int64
}

// HitRate returns Hits / (Hits + Misses), or 0 before the first Get.
func (s NoisePoolStats) HitRate() float64 {
	if t := s.Hits + s.Misses; t > 0 {
		return float64(s.Hits) / float64(t)
	}
	return 0
}

// NoisePool pre-draws noise sets for a fixed cycle of layer lengths — the
// input lengths of a model's offloaded layers, in offload order — into a
// bounded ring. One background goroutine owns the RNG and draws sets
// strictly in cycle order, so with a single in-order consumer the k-th Get
// returns exactly the k-th drawn set: pooled runs are as reproducible as
// inline ones. Get and Recycle are safe for concurrent use by multiple
// consumers (pipeline lanes sharing one pool); the draw order then depends
// on scheduling, which is fine — decode exactness makes the outputs
// independent of the noise values.
type NoisePool struct {
	m       int
	lengths []int
	sets    int // ring capacity

	mu     sync.Mutex
	cond   *sync.Cond // signals the refiller that a spare slot appeared
	ready  []*NoiseSet
	spare  []*NoiseSet
	closed bool

	rng *rand.Rand // refiller-owned; never touched by consumers

	hits    atomic.Int64
	misses  atomic.Int64
	refills atomic.Int64

	wg sync.WaitGroup
}

// NewNoisePool starts a background generator pre-drawing sets of m uniform
// rows for the given cycle of row lengths (one entry per offloaded layer,
// in offload order). sets bounds the ring: at most that many sets exist,
// pre-drawn or in flight; <= 0 picks two full cycles. All randomness comes
// from a private RNG seeded with seed. Close must be called to stop the
// generator.
func NewNoisePool(seed int64, m int, lengths []int, sets int) *NoisePool {
	if m < 1 || len(lengths) == 0 {
		return nil
	}
	if sets <= 0 {
		sets = 2 * len(lengths)
	}
	p := &NoisePool{
		m:       m,
		lengths: append([]int(nil), lengths...),
		sets:    sets,
		rng:     rand.New(rand.NewSource(seed)),
	}
	p.cond = sync.NewCond(&p.mu)
	// Pre-size every slot for its position in the cycle so the steady state
	// never reallocates rows: slot j always carries length lengths[j % L].
	p.spare = make([]*NoiseSet, 0, sets)
	for j := 0; j < sets; j++ {
		n := p.lengths[j%len(p.lengths)]
		rows := make([]field.Vec, m)
		for r := range rows {
			rows[r] = field.NewVec(n)
		}
		p.spare = append(p.spare, &NoiseSet{Rows: rows, n: n})
	}
	p.wg.Add(1)
	go p.refill()
	return p
}

// refill is the background generator: it takes a spare set, overwrites its
// rows with fresh uniform draws for the next length in the cycle, and
// appends it to the ready ring, blocking while no spare is available.
func (p *NoisePool) refill() {
	defer p.wg.Done()
	for i := 0; ; i++ {
		n := p.lengths[i%len(p.lengths)]
		p.mu.Lock()
		for len(p.spare) == 0 && !p.closed {
			p.cond.Wait()
		}
		if p.closed {
			p.mu.Unlock()
			return
		}
		// Shift the queue down rather than slicing past its head, so its
		// array keeps its capacity and Recycle's appends stop allocating.
		set := p.spare[0]
		k := copy(p.spare, p.spare[1:])
		p.spare[k] = nil
		p.spare = p.spare[:k]
		p.mu.Unlock()

		// Draw outside the lock — this is the offline work the pool exists
		// to hide. The set is owned exclusively by the refiller here.
		if set.n != n {
			// Out-of-phase recycle (a consumer missed mid-cycle): resize.
			for r := range set.Rows {
				if cap(set.Rows[r]) < n {
					set.Rows[r] = field.NewVec(n)
				}
				set.Rows[r] = set.Rows[r][:n]
			}
			set.n = n
		}
		for r := range set.Rows {
			field.RandVecInto(p.rng, set.Rows[r])
		}
		p.refills.Add(1)

		p.mu.Lock()
		if p.closed {
			p.mu.Unlock()
			return
		}
		p.ready = append(p.ready, set)
		p.mu.Unlock()
	}
}

// Get returns a pre-drawn noise set of row length n, or nil when none is
// ready (the caller then draws inline; the miss is counted). A returned set
// is exclusively owned by the caller until it hands it back with Recycle.
// Get never blocks — exhaustion degrades to the online path, it does not
// stall the encode.
func (p *NoisePool) Get(n int) *NoiseSet {
	p.mu.Lock()
	// First match wins: a single in-order consumer always matches the head
	// (preserving the deterministic stream), while pipeline lanes whose
	// layer cycles interleave out of phase still find their length further
	// down the ring instead of missing.
	for i, set := range p.ready {
		if set.n == n {
			p.ready = append(p.ready[:i], p.ready[i+1:]...)
			p.mu.Unlock()
			p.hits.Add(1)
			return set
		}
	}
	p.mu.Unlock()
	p.misses.Add(1)
	return nil
}

// Recycle hands a consumed set back to the pool for the refiller to
// overwrite. Call it as soon as EncodeWith returns — the rows must no
// longer be referenced.
func (p *NoisePool) Recycle(set *NoiseSet) {
	if set == nil {
		return
	}
	p.mu.Lock()
	if !p.closed {
		p.spare = append(p.spare, set)
	}
	p.mu.Unlock()
	p.cond.Signal()
}

// Stats returns the pool's hit/miss/refill counters.
func (p *NoisePool) Stats() NoisePoolStats {
	return NoisePoolStats{
		Hits:    p.hits.Load(),
		Misses:  p.misses.Load(),
		Refills: p.refills.Load(),
	}
}

// Close stops the background generator and waits for it to exit. Get calls
// after Close miss; Recycle becomes a no-op. Safe to call more than once.
func (p *NoisePool) Close() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		p.wg.Wait()
		return
	}
	p.closed = true
	p.ready = nil
	p.mu.Unlock()
	p.cond.Broadcast()
	p.wg.Wait()
}
