package gpu

import (
	"fmt"
	"sync"
	"time"

	"darknight/internal/field"
)

// BlockFlight is the one way a coded vector reaches a device: a
// conversation with every device of a gang over which the TEE ships
// bilinear layers in turn — in the runtime, every forward and backward
// offload of one virtual batch. Each slot runs its jobs in FIFO order on a
// worker that starts with the slot's first job and exits when its queue is
// empty, so shipping never blocks on a straggling device: a slot still
// chewing on layer l simply accumulates its layer l+1 job while the quorum
// gather decodes around it, and a device's forward job for a layer (which
// stores the coded input) always runs before its own gradient job for it.
// Everything flight-scoped — the trips' launch latency, the fleet's handle
// accounting — is paid once per flight; the per-layer math (encode,
// decode, verify) is untouched, which is what keeps outputs bit-identical
// to flying every layer alone.
//
// A flight has one owner: ship and gather from a single goroutine.
type BlockFlight struct {
	slots []tripSlot
	opts  BlockOptions
	ended bool
}

// BlockOptions customizes a flight's key mapping and accounting hooks; the
// zero value dispatches with raw keys and no observation.
type BlockOptions struct {
	// MapKey rewrites a logical tensor key for one slot's device store.
	// nil keeps the key as-is (the bare-cluster convention; the fleet maps
	// through SlotKey so rotated devices never collide).
	MapKey func(key string, slot int) string
	// Observe, when non-nil, receives each completed job's response latency,
	// measured from the moment its layer was shipped — the fleet's health
	// EWMA feed.
	Observe func(slot int, lat time.Duration)
	// Straggler, when non-nil, is invoked once for each job a quorum gather
	// returned without.
	Straggler func(slot int)
	// Spare, when non-nil and SpeculateAfter is positive, lends a device
	// outside the gang to a forward layer whose quorum has not formed
	// SpeculateAfter into its gather: the lagging slot's coded share is
	// re-dispatched to the spare and the first delivery wins. done hands the
	// device back with the job's latency; ok is false when none is free.
	Spare          func(slot int) (trip DeviceTrip, done func(lat time.Duration), ok bool)
	SpeculateAfter time.Duration
	// OnEnd, when non-nil, runs when the flight ends — where the fleet
	// retires its per-flight handle.
	OnEnd func()
}

// job is one device computation of a layer: entry is its index in the
// layer's result order, x its operand (a coded input or a combined delta).
// A job with no layer drops the device's stores under the keys in drop
// instead.
type job struct {
	p     *LayerPending
	entry int
	x     field.Vec
	drop  []string
}

// tripSlot is one device conversation: a FIFO of jobs drained by a worker
// that lives only while the queue is non-empty.
type tripSlot struct {
	trip  DeviceTrip
	mu    sync.Mutex
	queue []job
	busy  bool
	idle  chan struct{} // closed when the worker exits, while drain waits
}

func (s *tripSlot) enqueue(j job) {
	s.mu.Lock()
	if s.busy {
		s.queue = append(s.queue, j)
		s.mu.Unlock()
		return
	}
	s.busy = true
	s.mu.Unlock()
	go s.work(j)
}

func (s *tripSlot) work(j job) {
	for {
		if j.p != nil {
			j.p.run(s.trip, j.entry, j.x, "", nil)
		} else {
			for _, key := range j.drop {
				s.trip.Drop(key)
			}
		}
		s.mu.Lock()
		if len(s.queue) == 0 {
			s.busy = false
			if s.idle != nil {
				close(s.idle)
				s.idle = nil
			}
			s.mu.Unlock()
			return
		}
		j = s.queue[0]
		s.queue = s.queue[1:]
		s.mu.Unlock()
	}
}

// NewBlockFlight opens a flight over one trip per gang slot.
func NewBlockFlight(trips []DeviceTrip, opts BlockOptions) *BlockFlight {
	f := &BlockFlight{slots: make([]tripSlot, len(trips)), opts: opts}
	for i, tr := range trips {
		f.slots[i].trip = tr
	}
	return f
}

// Slots returns the gang width of the flight.
//
//lint:ignore testonly the leasepair corpus and its seeded mutant in tree_test.go typecheck against it
func (f *BlockFlight) Slots() int { return len(f.slots) }

// storeKey maps a logical tensor key to the key one slot's device stores
// it under.
func (f *BlockFlight) storeKey(key string, slot int) string {
	if f.opts.MapKey != nil {
		return f.opts.MapKey(key, slot)
	}
	return key
}

// Drop has every slot forget the coded inputs stored under the logical
// keys — the end of a training batch's device memory (§6: a batch's coded
// inputs are kept only until its backward pass has read them). The drop
// rides each slot's FIFO behind every job already shipped, so a quorum
// laggard's late store cannot outlive it, and End waits for it on the
// slots it drains. It is bookkeeping, not a device job: no traffic is
// counted.
func (f *BlockFlight) Drop(keys []string) {
	if len(keys) == 0 {
		return
	}
	for i := range f.slots {
		slotKeys := make([]string, len(keys))
		for j, key := range keys {
			slotKeys[j] = f.storeKey(key, i)
		}
		f.slots[i].enqueue(job{drop: slotKeys})
	}
}

// ForwardLayer ships one layer: slot j computes the kernel on coded[j],
// storing it under the layer key for backward reuse. Returns immediately;
// gather through the LayerPending.
func (f *BlockFlight) ForwardLayer(key string, kernel LinearKernel, coded []field.Vec) (*LayerPending, error) {
	if len(coded) != len(f.slots) {
		return nil, fmt.Errorf("gpu: %d coded inputs for flight of %d slots", len(coded), len(f.slots))
	}
	p := f.newPending(key, len(coded), 0)
	p.fwd, p.coded = kernel, coded
	for j, x := range coded {
		f.slots[j].enqueue(job{p: p, entry: j, x: x})
	}
	return p, nil
}

// GradLayer ships one layer's weight-gradient equations against the coded
// inputs the devices stored during forward: the primary equations prim[j]
// on slots [0, len(prim)) and, when sec is non-nil, the equally many
// redundant-decoding equations sec[j] on the flight's last len(sec) slots —
// [E, S+E) on a flight of S+E slots — so the gather can return from
// whichever window completes first. The result order is prim then sec.
func (f *BlockFlight) GradLayer(key string, kernel BilinearKernel, prim, sec []field.Vec) (*LayerPending, error) {
	if len(prim) > len(f.slots) || (sec != nil && len(sec) != len(prim)) {
		return nil, fmt.Errorf("gpu: backward windows (%d primary, %d secondary) for flight of %d slots",
			len(prim), len(sec), len(f.slots))
	}
	p := f.newPending(key, len(prim), len(sec))
	p.bwd = kernel
	p.errs = make([]error, len(prim)+len(sec))
	for j, d := range prim {
		f.slots[j].enqueue(job{p: p, entry: j, x: d})
	}
	for j, d := range sec {
		f.slots[p.secSlot+j].enqueue(job{p: p, entry: len(prim) + j, x: d})
	}
	return p, nil
}

// drain waits until every slot whose trip cannot block has run every job
// shipped down the flight. Such a trip's calls wait on nothing outside it —
// the honest kernel, and a slow device's trip over one, which holds answers,
// not work — so drain waits only for the slot workers to be scheduled, never
// for a device: a trip that may block (a chaos actuator, a test device) is
// not waited for.
func (f *BlockFlight) drain() {
	for i := range f.slots {
		s := &f.slots[i]
		if !prompt(s.trip) {
			continue
		}
		s.mu.Lock()
		if !s.busy {
			s.mu.Unlock()
			continue
		}
		if s.idle == nil {
			s.idle = make(chan struct{})
		}
		idle := s.idle
		s.mu.Unlock()
		<-idle
	}
}

// prompt reports whether no call on the trip can block.
func prompt(t DeviceTrip) bool {
	switch v := t.(type) {
	case *honest:
		return true
	case *slowTrip:
		return prompt(v.inner)
	}
	return false
}

// End closes the conversation and fires the OnEnd hook. It waits for no
// device call that can block: a layer that was gathered has nothing left
// running except jobs a quorum decoded around, and on a device that may
// block those finish on their own time. It does wait for the slots whose
// calls cannot block to run every job shipped to them (drain), so the
// devices' work for the flight — and their traffic counters — is complete
// when the flight ends. Idempotent.
func (f *BlockFlight) End() {
	if f.ended {
		return
	}
	f.ended = true
	f.drain()
	if f.opts.OnEnd != nil {
		f.opts.OnEnd()
	}
}

// LayerPending gathers one layer's in-flight results. It fills job by job,
// so a quorum gather can snapshot as soon as enough of them landed. Its
// jobs form one window (a forward layer, or a backward layer's primary
// equations) or two equally long ones (primary then secondary equations).
type LayerPending struct {
	f       *BlockFlight
	key     string
	fwd     LinearKernel
	bwd     BilinearKernel
	coded   []field.Vec // forward operands, for speculative re-dispatch
	window  int         // jobs per window; jobs [window, len(results)) are the secondary window
	secSlot int         // the secondary window's first slot
	shipped time.Time   // when the layer left the TEE (set only when observed)
	wake    chan struct{}

	mu       sync.Mutex
	results  []field.Vec
	errs     []error // backward layers only
	present  []bool  // answered without error
	ok       [2]int  // per window: jobs answered without error
	answered int
	need     int // the quorum a parked gatherer waits for; 0 when none is parked
}

func (f *BlockFlight) newPending(key string, window, secondary int) *LayerPending {
	n := window + secondary
	var shipped time.Time
	if f.opts.Observe != nil {
		shipped = time.Now()
	}
	return &LayerPending{
		shipped: shipped,
		f:       f,
		key:     key,
		window:  window,
		secSlot: len(f.slots) - secondary,
		wake:    make(chan struct{}, 1),
		results: make([]field.Vec, n),
		present: make([]bool, n),
	}
}

// slot returns the gang slot that computes a job.
func (p *LayerPending) slot(entry int) int {
	if entry < p.window {
		return entry
	}
	return p.secSlot + entry - p.window
}

// run executes one job on a trip — the slot's own, or a spare's with a key
// suffix that keeps the spare's store apart — and answers it, then runs
// done (when non-nil). A slow device's trip may hold the answer until its
// launch latency has passed; the slot moves on to its next job meanwhile.
// A spare's store is dropped as soon as its job ran: no backward pass
// reads it, and no flight owns the spare to drop it later.
func (p *LayerPending) run(trip DeviceTrip, entry int, x field.Vec, suffix string, done func()) {
	slot := p.slot(entry)
	key := p.f.storeKey(p.key, slot) + suffix
	var (
		y   field.Vec
		err error
	)
	if p.fwd != nil {
		y = trip.LinearForward(key, p.fwd, x)
		if suffix != "" {
			trip.Drop(key)
		}
	} else {
		y, err = trip.GradWeights(key, p.bwd, x)
	}
	if st, ok := trip.(*slowTrip); ok && st.hold(func() { p.answer(slot, entry, y, err, suffix, done) }) {
		return
	}
	p.answer(slot, entry, y, err, suffix, done)
}

// answer files one job's result: the latency observation, the delivery,
// then done.
func (p *LayerPending) answer(slot, entry int, y field.Vec, err error, suffix string, done func()) {
	if suffix == "" && p.f.opts.Observe != nil {
		p.f.opts.Observe(slot, time.Since(p.shipped))
	}
	p.deliver(entry, y, err)
	if done != nil {
		done()
	}
}

// settled reports whether a gather for quorum q can return: one window has
// q clean answers, or every job has answered. Caller holds mu.
func (p *LayerPending) settled(q int) bool {
	return p.ok[0] >= q || p.ok[1] >= q || p.answered == len(p.results)
}

// deliver records a job's answer — the first delivery wins — and wakes the
// gatherer when it is the answer the gatherer was waiting for.
func (p *LayerPending) deliver(entry int, v field.Vec, err error) {
	p.mu.Lock()
	if p.present[entry] || (p.errs != nil && p.errs[entry] != nil) {
		p.mu.Unlock()
		return
	}
	p.answered++
	if err != nil {
		p.errs[entry] = err
	} else {
		p.results[entry], p.present[entry] = v, true
		if entry < p.window {
			p.ok[0]++
		} else {
			p.ok[1]++
		}
	}
	wake := p.need > 0 && p.settled(p.need)
	if wake {
		p.need = 0
	}
	p.mu.Unlock()
	if wake {
		p.wake <- struct{}{}
	}
}

// Wait gathers the layer with no straggler tolerance: a whole window must
// answer.
func (p *LayerPending) Wait() ([]field.Vec, error) {
	results, _, err := p.WaitQuorum(p.window)
	return results, err
}

// WaitQuorum blocks until q jobs of one window have answered (a q outside
// [1, window] means the whole window) and returns the results in job order
// with a presence mask; a nil mask means every job answered. Jobs still
// running at that point are branded stragglers and finish on their own
// time — the returned slices are snapshots they never touch, but the
// layer's operands and everything its kernel references must stay
// unmodified for as long as a straggler may run. When every job has
// answered and no window reached q, the per-slot errors fold through
// FoldSlotErrors.
func (p *LayerPending) WaitQuorum(q int) ([]field.Vec, []bool, error) {
	if q <= 0 || q > p.window {
		q = p.window
	}
	p.mu.Lock()
	if !p.settled(q) {
		var spec *time.Timer
		if o := &p.f.opts; q < p.window && p.fwd != nil && o.Spare != nil && o.SpeculateAfter > 0 {
			spec = time.AfterFunc(o.SpeculateAfter, p.speculate)
		}
		p.need = q
		p.mu.Unlock()
		<-p.wake
		if spec != nil {
			spec.Stop()
		}
		p.mu.Lock()
	}
	if p.ok[0] < q && p.ok[1] < q {
		err := p.foldErrors()
		p.mu.Unlock()
		return nil, nil, err
	}
	if p.ok[0]+p.ok[1] == len(p.results) {
		p.mu.Unlock()
		return p.results, nil, nil
	}
	results := append([]field.Vec(nil), p.results...)
	present := append([]bool(nil), p.present...)
	var lagging []int
	for entry, got := range present {
		if !got && (p.errs == nil || p.errs[entry] == nil) {
			lagging = append(lagging, p.slot(entry))
		}
	}
	p.mu.Unlock()
	if p.f.opts.Straggler != nil {
		for _, slot := range lagging {
			p.f.opts.Straggler(slot)
		}
	}
	return results, present, nil
}

// foldErrors folds the jobs' errors by gang slot. Caller holds mu.
func (p *LayerPending) foldErrors() error {
	bySlot := make([]error, len(p.f.slots))
	for entry, err := range p.errs {
		if err != nil {
			bySlot[p.slot(entry)] = err
		}
	}
	if err := FoldSlotErrors(bySlot); err != nil {
		return err
	}
	return fmt.Errorf("gpu: layer %q incomplete with no device errors (bug)", p.key)
}

// speculate re-dispatches every still-lagging coded share to a borrowed
// spare. Best-effort: it stops as soon as no spare is free.
func (p *LayerPending) speculate() {
	p.mu.Lock()
	var lagging []int
	for entry, got := range p.present {
		if !got {
			lagging = append(lagging, entry)
		}
	}
	p.mu.Unlock()
	for _, entry := range lagging {
		trip, done, ok := p.f.opts.Spare(entry)
		if !ok {
			return
		}
		go func() {
			start := time.Now()
			p.run(trip, entry, p.coded[entry], "#spec", func() { done(time.Since(start)) })
		}()
	}
}

// BeginBlock opens a flight over the first n devices of the cluster, with
// raw storage keys: slot i is device i for the cluster's lifetime.
func (c *Cluster) BeginBlock(n int) (*BlockFlight, error) {
	if n > len(c.devices) {
		return nil, fmt.Errorf("gpu: flight of %d slots for %d devices", n, len(c.devices))
	}
	trips := make([]DeviceTrip, n)
	for i := range trips {
		trips[i] = BeginTrip(c.devices[i])
	}
	return NewBlockFlight(trips, BlockOptions{}), nil
}
