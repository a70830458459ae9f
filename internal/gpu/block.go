package gpu

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
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
// gather decodes around it, and a device's forward job for a layer always
// runs before its own gradient job for it. Everything flight-scoped — a
// slow device's launch latency, the fleet's handle accounting — is paid
// once per flight; the per-layer math (encode, decode, verify) is
// untouched, which is what keeps outputs bit-identical to flying every
// layer alone.
//
// A training batch's flight keeps what its devices keep between the passes
// (§6 "Encoded Data Storage During Forward Pass"): marked by KeepInputs,
// each forward job keeps a pooled copy of its coded input in the layer's
// LayerPending, the gradient job on the same slot reads it back, and End
// recycles it. The copies live exactly as long as the flight, so two
// flights on one device — pipelined lanes, or training beside inference —
// can neither alias nor miss each other's inputs.
//
// A flight has one owner: ship and gather from a single goroutine.
type BlockFlight struct {
	slots []slot
	opts  BlockOptions
	keep  bool          // forward jobs keep their coded inputs (KeepInputs)
	kept  *LayerPending // the newest forward layer that kept its inputs; older ones chain through prev
	live  atomic.Int64  // inputs kept and not yet recycled
	ended bool
}

// BlockOptions customizes a flight's accounting hooks; the zero value
// dispatches with no observation.
type BlockOptions struct {
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
	Spare          func(slot int) (dev Device, done func(lat time.Duration), ok bool)
	SpeculateAfter time.Duration
	// OnEnd, when non-nil, runs when the flight ends — where the fleet
	// retires its per-flight handle.
	OnEnd func()
}

// job is one device computation of a layer: entry is its index in the
// layer's result order, x its operand (a coded input or a combined delta).
// A job with no layer instead recycles the inputs kept at gang slot entry
// by the forward layers chained from kept.
type job struct {
	p     *LayerPending
	entry int
	x     field.Vec
	kept  *LayerPending
}

// slot is one device conversation: the device its jobs run on, what a
// conversation with it costs — both decided once, when the flight opens —
// and a FIFO of jobs drained by a worker that lives only while the queue
// is non-empty. Popping a job moves the backlog down the queue's array
// instead of slicing past it, so the array keeps its front capacity and
// a busy slot's enqueues stop growing it once it holds the slot's longest
// backlog.
type slot struct {
	dev Device
	// launch is the latency a slow device pays once per conversation; nil
	// for a device with none, so only slow devices carry its state.
	launch *launch
	// start is work bound to the slot once, by open, so starting a worker
	// copies nothing to the heap.
	start func()

	mu     sync.Mutex
	queue  []job
	busy   bool
	prompt bool          // set by open: no call on dev can block
	idle   chan struct{} // closed when the worker exits, while drain waits
}

// open starts the conversation with d. A device built by NewSlow charges
// its delay once per conversation instead of once per job: the delay
// models dispatch overhead — kernel launch, transfer setup — which a
// persistent conversation pays a single time, once per virtual batch. Its
// jobs run on the device below it, and only the outermost delay counts.
// Every other wrapper (fault injection, collusion capture, chaos) keeps its
// per-job semantics, a slow device nested inside it included, so the
// conversation changes what a device costs, never what it computes. A
// call cannot block when the device is honest, or slow over honest: the
// launch holds answers, not work.
func (s *slot) open(d Device) {
	if sl, ok := d.(*slow); ok && sl.delay > 0 {
		s.launch = &launch{delay: sl.delay}
	}
	for sl, ok := d.(*slow); ok; sl, ok = d.(*slow) {
		d = sl.Device
	}
	s.dev = d
	_, s.prompt = d.(*honest)
	s.start = s.work
}

func (s *slot) enqueue(j job) {
	s.mu.Lock()
	s.queue = append(s.queue, j)
	if s.busy {
		s.mu.Unlock()
		return
	}
	s.busy = true
	s.mu.Unlock()
	go s.start()
}

// work runs the slot's queue, front first, until it is empty.
func (s *slot) work() {
	s.mu.Lock()
	for len(s.queue) > 0 {
		j := s.queue[0]
		n := copy(s.queue, s.queue[1:])
		s.queue[n] = job{} // the vacated tail keeps no job's operands alive
		s.queue = s.queue[:n]
		s.mu.Unlock()
		if j.p != nil {
			j.p.run(s, j.entry, j.x, nil)
		} else {
			recycle(j.kept, j.entry)
		}
		s.mu.Lock()
	}
	s.busy = false
	if s.idle != nil {
		close(s.idle)
		s.idle = nil
	}
	s.mu.Unlock()
}

// recycleAfter hands the inputs kept at gang slot i by the forward layers
// chained from kept back to the pool behind the last job queued on the
// slot — a laggard's forward and gradient jobs read them — or at once when
// the slot is idle.
func (s *slot) recycleAfter(kept *LayerPending, i int) {
	s.mu.Lock()
	if s.busy {
		s.queue = append(s.queue, job{entry: i, kept: kept})
		s.mu.Unlock()
		return
	}
	s.mu.Unlock()
	recycle(kept, i)
}

// recycle returns the inputs kept at gang slot i by the forward layers
// chained from p to the field scratch pool.
func recycle(p *LayerPending, i int) {
	for ; p != nil; p = p.prev {
		field.PutScratchVec(p.inputs[i])
		p.inputs[i] = nil
		p.f.live.Add(-1)
	}
}

// NewBlockFlight opens a flight with one slot per device, in gang order.
func NewBlockFlight(devs []Device, opts BlockOptions) *BlockFlight {
	f := &BlockFlight{slots: make([]slot, len(devs)), opts: opts}
	for i, d := range devs {
		f.slots[i].open(d)
	}
	return f
}

// launch holds a slow device's answers until its latency has passed since
// the conversation's first job: the latency delays what the TEE hears
// back, not the device's work, so jobs queued behind the first one — the
// rest of the batch's forward layers and its gradient jobs — never wait
// out the launch themselves. One slot worker at a time starts it, so ready
// needs no lock; held is shared with the timer that releases it.
type launch struct {
	delay time.Duration
	ready time.Time // zero until the first job ran

	mu   sync.Mutex
	held []func() // answers waiting for ready, in the order their jobs ran
}

func (l *launch) start() {
	if l.ready.IsZero() {
		l.ready = time.Now().Add(l.delay)
	}
}

// hold queues answer until ready and reports whether it did: once the
// latency has passed, answers leave at once. One timer per conversation
// releases everything held.
func (l *launch) hold(answer func()) bool {
	wait := time.Until(l.ready)
	if wait <= 0 {
		return false
	}
	l.mu.Lock()
	l.held = append(l.held, answer)
	first := len(l.held) == 1
	l.mu.Unlock()
	if first {
		time.AfterFunc(wait, l.release)
	}
	return true
}

func (l *launch) release() {
	l.mu.Lock()
	held := l.held
	l.held = nil
	l.mu.Unlock()
	for _, answer := range held {
		answer()
	}
}

// Slots returns the gang width of the flight.
//
//lint:ignore testonly the leasepair corpus and its seeded mutant in tree_test.go typecheck against it
func (f *BlockFlight) Slots() int { return len(f.slots) }

// Kept returns how many coded inputs the flight keeps and has not yet
// recycled — a training batch's §6 device-memory footprint. It is 0 on a
// flight that keeps nothing, and once every slot has run its last job
// after End.
//
//lint:ignore testonly test fixture for the gpu and sched tests
func (f *BlockFlight) Kept() int { return int(f.live.Load()) }

// KeepInputs marks the flight to keep each forward job's coded input for
// the gradient jobs of its layer (GradLayer); End recycles them. Call it
// before the first forward layer: a layer shipped unmarked keeps nothing.
// A flight that runs no backward pass — inference — keeps nothing.
func (f *BlockFlight) KeepInputs() { f.keep = true }

// ForwardLayer ships one layer: slot j computes the kernel on coded[j],
// keeping a copy of coded[j] on a flight marked by KeepInputs. Returns
// immediately; gather through the LayerPending. The leading string is
// unused: it remains only because the benchmark harness under bench/ still
// passes it.
func (f *BlockFlight) ForwardLayer(_ string, kernel LinearKernel, coded []field.Vec) (*LayerPending, error) {
	if len(coded) != len(f.slots) {
		return nil, fmt.Errorf("gpu: %d coded inputs for flight of %d slots", len(coded), len(f.slots))
	}
	p := f.newPending(len(coded), 0)
	p.fwd, p.coded = kernel, coded
	if f.keep {
		p.inputs = make([]field.Vec, len(coded))
		p.prev, f.kept = f.kept, p
	}
	for j, x := range coded {
		f.slots[j].enqueue(job{p: p, entry: j, x: x})
	}
	return p, nil
}

// GradLayer ships one layer's weight-gradient equations against the coded
// inputs fwd, a forward layer of this marked flight, kept: the primary
// equations prim[j] on slots [0, len(prim)) and, when sec is non-nil, the
// equally many redundant-decoding equations sec[j] on the flight's last
// len(sec) slots — [E, S+E) on a flight of S+E slots — so the gather can
// return from whichever window completes first. The result order is prim
// then sec. Each job rides its slot's FIFO behind the slot's forward job
// for fwd, so the input it reads is always there.
func (f *BlockFlight) GradLayer(fwd *LayerPending, kernel BilinearKernel, prim, sec []field.Vec) (*LayerPending, error) {
	if fwd == nil || fwd.f != f || fwd.inputs == nil {
		return nil, errors.New("gpu: gradient layer needs a forward layer of its own flight that kept its inputs")
	}
	if len(prim) > len(f.slots) || (sec != nil && len(sec) != len(prim)) {
		return nil, fmt.Errorf("gpu: backward windows (%d primary, %d secondary) for flight of %d slots",
			len(prim), len(sec), len(f.slots))
	}
	p := f.newPending(len(prim), len(sec))
	p.bwd, p.from = kernel, fwd
	for j, d := range prim {
		f.slots[j].enqueue(job{p: p, entry: j, x: d})
	}
	for j, d := range sec {
		f.slots[p.secSlot+j].enqueue(job{p: p, entry: len(prim) + j, x: d})
	}
	return p, nil
}

// drain waits until every prompt slot has run every job shipped down the
// flight. A prompt slot's calls wait on nothing outside it — the honest
// kernel, and a slow device over one, which holds answers, not work — so
// drain waits only for the slot workers to be scheduled, never for a
// device: a slot that may block (a chaos actuator, a test device) is not
// waited for.
func (f *BlockFlight) drain() {
	for i := range f.slots {
		s := &f.slots[i]
		if !s.prompt {
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

// End closes the conversation and fires the OnEnd hook. It waits for no
// device call that can block: a layer that was gathered has nothing left
// running except jobs a quorum decoded around, and on a device that may
// block those finish on their own time. It does wait for the slots whose
// calls cannot block to run every job shipped to them (drain), so the
// devices' work for the flight — and their traffic counters — is complete
// when the flight ends. The kept inputs go back to the pool behind each
// slot's last job. Idempotent.
func (f *BlockFlight) End() {
	if f.ended {
		return
	}
	f.ended = true
	f.drain()
	if f.kept != nil {
		for i := range f.slots {
			f.slots[i].recycleAfter(f.kept, i)
		}
	}
	if f.opts.OnEnd != nil {
		f.opts.OnEnd()
	}
}

// LayerPending gathers one layer's in-flight results. It fills job by job,
// so a quorum gather can snapshot as soon as enough of them landed. Its
// jobs form one window (a forward layer, or a backward layer's primary
// equations) or two equally long ones (primary then secondary equations).
type LayerPending struct {
	f     *BlockFlight
	fwd   LinearKernel
	bwd   BilinearKernel
	coded []field.Vec // forward operands, for speculative re-dispatch
	// inputs holds, by gang slot, the coded inputs a forward layer of a
	// marked flight kept; each is written and read only by its slot's jobs
	// (and by End once the slot is idle). prev chains the flight's earlier
	// such layers, for End to recycle.
	inputs  []field.Vec
	prev    *LayerPending
	from    *LayerPending // a gradient layer's forward layer
	window  int           // jobs per window; jobs [window, len(results)) are the secondary window
	secSlot int           // the secondary window's first slot
	shipped time.Time     // when the layer left the TEE (set only when observed)
	wake    chan struct{}

	mu      sync.Mutex
	results []field.Vec
	present []bool
	ok      [2]int // per window: jobs answered
	need    int    // the quorum a parked gatherer waits for; 0 when none is parked
	prompt  bool   // a parked gatherer waits for every prompt slot's job instead
}

func (f *BlockFlight) newPending(window, secondary int) *LayerPending {
	n := window + secondary
	var shipped time.Time
	if f.opts.Observe != nil {
		shipped = time.Now()
	}
	return &LayerPending{
		shipped: shipped,
		f:       f,
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

// run executes one job in a conversation — the gang slot's own, or, when
// done is non-nil, a spare's — and answers it, then runs done. A slow
// device may hold the answer until its launch latency has passed; the slot
// moves on to its next job meanwhile. A spare keeps nothing and feeds no
// latency observation: the gang slot's own job keeps the share, which is
// where the layer's gradient job reads it.
func (p *LayerPending) run(s *slot, entry int, x field.Vec, done func()) {
	gang := p.slot(entry)
	var y field.Vec
	if p.fwd != nil {
		if p.inputs != nil && done == nil {
			// A copy, like the tensor a transfer leaves in device memory:
			// the TEE rewrites its coded buffers for the next layer.
			kept := field.GetScratchVec(len(x))
			copy(kept, x)
			p.inputs[gang] = kept
			p.f.live.Add(1)
		}
		y = s.dev.LinearForward(p.fwd, x)
	} else {
		y = s.dev.GradWeights(p.bwd, x, p.from.inputs[gang])
	}
	if l := s.launch; l != nil {
		l.start()
		if l.hold(func() { p.answer(gang, entry, y, done) }) {
			return
		}
	}
	p.answer(gang, entry, y, done)
}

// answer files one job's result: the latency observation (a gang slot's
// only), the delivery, then done.
func (p *LayerPending) answer(slot, entry int, y field.Vec, done func()) {
	if done == nil && p.f.opts.Observe != nil {
		p.f.opts.Observe(slot, time.Since(p.shipped))
	}
	p.deliver(entry, y)
	if done != nil {
		done()
	}
}

// settled reports whether a gather for quorum q can return: one window has
// q answers. Caller holds mu.
func (p *LayerPending) settled(q int) bool {
	return p.ok[0] >= q || p.ok[1] >= q
}

// deliver records a job's answer — the first delivery wins — and wakes the
// gatherer when it is the answer the gatherer was waiting for.
func (p *LayerPending) deliver(entry int, v field.Vec) {
	p.mu.Lock()
	if p.present[entry] {
		p.mu.Unlock()
		return
	}
	p.results[entry], p.present[entry] = v, true
	if entry < p.window {
		p.ok[0]++
	} else {
		p.ok[1]++
	}
	wake := (p.need > 0 && p.settled(p.need)) || (p.prompt && p.promptSettled())
	if wake {
		p.need, p.prompt = 0, false
	}
	p.mu.Unlock()
	if wake {
		p.wake <- struct{}{}
	}
}

// Wait gathers the layer with no straggler tolerance: a whole window must
// answer.
func (p *LayerPending) Wait() []field.Vec {
	results, _ := p.WaitQuorum(p.window)
	return results
}

// WaitQuorum blocks until q jobs of one window have answered (a q outside
// [1, window] means the whole window) and returns the results in job order
// with a presence mask; a nil mask means every job answered. Jobs still
// running at that point are branded stragglers and finish on their own
// time — the returned slices are snapshots they never touch, but the
// layer's operands and everything its kernel references must stay
// unmodified for as long as a straggler may run.
func (p *LayerPending) WaitQuorum(q int) ([]field.Vec, []bool) {
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
	if p.ok[0]+p.ok[1] == len(p.results) {
		p.mu.Unlock()
		return p.results, nil
	}
	results := append([]field.Vec(nil), p.results...)
	present := append([]bool(nil), p.present...)
	var lagging []int
	for entry, got := range present {
		if !got {
			lagging = append(lagging, p.slot(entry))
		}
	}
	p.mu.Unlock()
	if p.f.opts.Straggler != nil {
		for _, slot := range lagging {
			p.f.opts.Straggler(slot)
		}
	}
	return results, present
}

// WaitPrompt blocks until every job of the layer on a slot whose calls
// cannot block — the slots End's drain waits for — has answered, and
// returns the results in job order with a presence mask, as WaitQuorum
// does. A quorum gather that returned around laggards uses it to take in
// the answers bound to land; a job on a slot that may block is never
// waited for.
func (p *LayerPending) WaitPrompt() ([]field.Vec, []bool) {
	p.mu.Lock()
	if !p.promptSettled() {
		p.prompt = true
		p.mu.Unlock()
		<-p.wake
		p.mu.Lock()
	}
	defer p.mu.Unlock()
	if p.ok[0]+p.ok[1] == len(p.results) {
		return p.results, nil
	}
	return slices.Clone(p.results), slices.Clone(p.present)
}

// promptSettled reports whether every job on a prompt slot has answered.
// Caller holds mu.
func (p *LayerPending) promptSettled() bool {
	for entry, got := range p.present {
		if !got && p.f.slots[p.slot(entry)].prompt {
			return false
		}
	}
	return true
}

// speculate re-dispatches every still-lagging coded share to a borrowed
// spare, in a one-job conversation of its own. Best-effort: it stops as
// soon as no spare is free.
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
		dev, done, ok := p.f.opts.Spare(entry)
		if !ok {
			return
		}
		go func() {
			var s slot
			s.open(dev)
			start := time.Now()
			p.run(&s, entry, p.coded[entry], func() { done(time.Since(start)) })
		}()
	}
}

// BeginBlock opens a flight over the first n devices of the cluster: slot
// i is device i.
func (c *Cluster) BeginBlock(n int) (*BlockFlight, error) {
	if n > len(c.devices) {
		return nil, fmt.Errorf("gpu: flight of %d slots for %d devices", n, len(c.devices))
	}
	return NewBlockFlight(c.devices[:n], BlockOptions{}), nil
}
