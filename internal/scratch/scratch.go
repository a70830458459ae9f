// Package scratch provides the size-classed sync.Pool slice recycler
// shared by the kernel packages: float64 scratch for the tensor kernels,
// field-element scratch for the device kernels and uint64 accumulator
// blocks for the coding kernels. One implementation, three instantiations
// — a fix to the classing or the Put cap-check lands everywhere at once.
package scratch

import (
	"math/bits"
	"sync"
)

// maxClass bounds the pooled power-of-two size classes; larger requests
// are served with one-off allocations and dropped on Put.
const maxClass = 30

// class returns the smallest power-of-two exponent c with 1<<c >= n.
func class(n int) int {
	if n <= 1 {
		return 0
	}
	return bits.Len(uint(n - 1))
}

// Pool recycles slices of T in power-of-two size classes. The zero value
// is ready to use; all methods are safe for concurrent use. Buffers are
// NOT zeroed on Get.
//
// A class pool holds *[]T, since a pointer goes into an interface without
// boxing. The slice headers those pointers name are recycled too: Get
// hands its emptied header to headers and Put takes one from there, so a
// Get/Put round trip allocates nothing once the pools are warm.
type Pool[T any] struct {
	classes [maxClass + 1]sync.Pool
	headers sync.Pool
}

// Get returns a length-n slice from the pool (contents undefined). Return
// it with Put when done; n <= 0 yields nil.
func (p *Pool[T]) Get(n int) []T {
	if n <= 0 {
		return nil
	}
	c := class(n)
	if c > maxClass {
		return make([]T, n)
	}
	if b, _ := p.classes[c].Get().(*[]T); b != nil {
		s := (*b)[:n]
		*b = nil
		p.headers.Put(b)
		return s
	}
	return make([]T, 1<<c)[:n]
}

// Put returns a Get buffer to the pool. Slices whose capacity is not an
// exact size class (not obtained here) are dropped.
func (p *Pool[T]) Put(s []T) {
	c := class(cap(s))
	if cap(s) == 0 || c > maxClass || cap(s) != 1<<c {
		return
	}
	b, _ := p.headers.Get().(*[]T)
	if b == nil {
		b = new([]T)
	}
	*b = s[:cap(s)]
	p.classes[c].Put(b)
}

// Arena is a bump allocator over stable backing blocks, for buffers that
// share one lifetime: Get hands out subslices of large blocks, Reset
// recycles them all at once (Hanson's regions, "Fast allocation and
// deallocation of memory based on object lifetimes", SP&E 1990). A caller
// that requests the same sequence of sizes every lifetime allocates only on
// its first pass; afterwards the blocks are simply re-sliced, so the block
// sizes come from the workload itself. Slices obtained from an Arena are
// invalidated by Reset and must not be retained across it. An Arena is not
// safe for concurrent use; the zero value is ready to use.
type Arena[T any] struct {
	blocks [][]T
	block  int // index of the block currently served from
	off    int // next free element in that block
}

// arenaBlock is the length of an Arena's first backing block; each later
// block is at least twice the one before.
const arenaBlock = 1 << 10

// Reset recycles every slice handed out since the last Reset.
func (a *Arena[T]) Reset() {
	a.block = 0
	a.off = 0
}

// Get returns a length-n slice backed by the arena WITHOUT clearing it: the
// caller must overwrite every element before reading it. Its capacity is
// n, so an append cannot spill into the next slice.
func (a *Arena[T]) Get(n int) []T {
	for {
		if a.block < len(a.blocks) {
			b := a.blocks[a.block]
			if a.off+n <= len(b) {
				s := b[a.off : a.off+n : a.off+n]
				a.off += n
				return s
			}
			a.block++
			a.off = 0
			continue
		}
		size := arenaBlock
		if len(a.blocks) > 0 {
			size = 2 * len(a.blocks[len(a.blocks)-1])
		}
		a.blocks = append(a.blocks, make([]T, max(size, n)))
	}
}
