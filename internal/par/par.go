// Package par is the bounded goroutine fan-out shared by the compute
// kernels in internal/tensor, internal/field and internal/masking. It
// exists so every blocked kernel splits work the same way — contiguous
// index ranges, one goroutine per available core, strictly serial when the
// machine (or a test) offers a single worker — and so tests can force a
// specific width to pin down parallel-vs-serial equivalence and allocation
// behaviour.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// maxWorkers overrides the fan-out width; 0 means GOMAXPROCS.
var maxWorkers atomic.Int32

// Workers returns the current fan-out width: the SetMaxWorkers override if
// set, otherwise GOMAXPROCS.
func Workers() int {
	if n := int(maxWorkers.Load()); n > 0 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}

// SetMaxWorkers overrides the fan-out width and returns the previous
// override (0 if none was set). n <= 0 removes the override. Tests use
// width 1 to pin allocation counts and width > 1 to exercise the parallel
// paths on single-core machines; production code should not call this.
//
//lint:ignore testonly test fixture for the field, masking and tensor tests
func SetMaxWorkers(n int) int {
	if n < 0 {
		n = 0
	}
	return int(maxWorkers.Swap(int32(n)))
}

// For runs fn over contiguous subranges covering [0, n). grain is the
// smallest range worth a goroutine (in loop iterations); when n <= grain or
// only one worker is available, fn(0, n) runs on the calling goroutine and
// nothing is spawned — the serial fast path costs no allocation. Otherwise
// the range splits into at most Workers() near-equal chunks and For blocks
// until all complete. fn must not panic across goroutines' shared state;
// ranges never overlap.
func For(n, grain int, fn func(lo, hi int)) {
	if n <= 0 {
		return
	}
	if grain < 1 {
		grain = 1
	}
	w := Workers()
	if max := (n + grain - 1) / grain; w > max {
		w = max
	}
	if w <= 1 {
		fn(0, n)
		return
	}
	span := (n + w - 1) / w
	var wg sync.WaitGroup
	for lo := 0; lo < n; lo += span {
		hi := lo + span
		if hi > n {
			hi = n
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			fn(lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}
