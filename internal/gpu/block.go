package gpu

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"darknight/internal/field"
	"darknight/internal/scratch"
)

// BlockFlight is the one way a coded vector reaches a device: a
// conversation with every device of a gang over which the TEE ships
// bilinear layers in turn — in the runtime, every forward and backward
// offload of one virtual batch. Shipping only queues a layer's jobs, one
// FIFO per slot, so it never blocks on a straggling device. On a flight
// whose slots are all prompt (see slot.open) nothing runs the queues until
// the owner gathers or ends the flight: it then runs every queued job
// itself, slot by slot, before it waits. On any other flight each slot
// runs its jobs on a worker that starts with the slot's first job and
// exits when its queue is empty: a slot still chewing on layer l simply
// accumulates its layer l+1 job while the quorum gather decodes around
// it. Everything flight-scoped — a slow device's launch latency, the
// fleet's handle accounting — is paid once per flight; the per-layer math
// (encode, decode, verify) is untouched, which is what keeps outputs
// bit-identical to flying every layer alone.
//
// A flight owns everything a device job can still read after the TEE has
// moved on, and releases all of it at one point. Its operands are born in
// it (Vec), or copied in when a layer ships a caller's own vector; a
// gradient job reads the operand its slot's forward job was shipped, which
// is what the devices keep between a batch's passes (§6 "Encoded Data
// Storage During Forward Pass"). An answer that lands after its gatherer's
// snapshot is the flight's too. The release comes once End has run, every
// slot has run its last job, every answer a slow device held has been
// delivered and every spare job has finished; it recycles the late
// answers, and the flight — its operands, layers, snapshots and slot
// queues — goes back for the next NewBlockFlight. So two flights on one
// device — pipelined lanes, or training beside inference — can neither
// alias nor miss each other's operands, and a quorum laggard reads its
// operands for as long as it runs.
//
// A flight has one owner: ship and gather from a single goroutine, and
// touch nothing of the flight — its layers and snapshots included — after
// End.
type BlockFlight struct {
	slots []slot
	opts  BlockOptions
	// mem holds every operand the flight owns, and owned lists them in the
	// order mem handed them out: a vector is the flight's exactly when it is
	// in owned. Only the owner appends, and only the release resets them.
	mem   scratch.Arena[field.Elem]
	owned []field.Vec
	// layers is the flight's pending table: the first shipped of them are
	// this conversation's layers, in shipping order; the rest wait for a
	// later conversation on the reused flight.
	layers  []*LayerPending
	shipped int
	// refs counts what holds the release back: the owner until End, each
	// running slot worker, each launch holding answers, each armed
	// speculation and each spare job.
	refs  atomic.Int32
	live  atomic.Int64 // flight-owned buffers not yet released (Kept)
	ended bool
	// onGather is set when every slot is prompt: the slots start no
	// workers, and only the owner touches their queues (runQueued).
	onGather bool
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
// layer's result order, and the layer's operand of that index its input.
type job struct {
	p     *LayerPending
	entry int
}

// slot is one device conversation: the device its jobs run on, what a
// conversation with it costs — both decided once, when the flight opens —
// and a FIFO of jobs, drained by the flight's owner when the flight runs
// its jobs on the gatherer, otherwise by a worker that lives only while
// the queue is non-empty. A worker pops a job by moving the backlog down
// the queue's array instead of slicing past it, so the array keeps its
// front capacity and a busy slot's enqueues stop growing it once it holds
// the slot's longest backlog. A reused flight keeps its slots, queues and launches.
type slot struct {
	f   *BlockFlight
	dev Device
	// launch is the latency a slow device pays once per conversation; nil
	// for a device with none, so only slow devices carry its state. It
	// points at lnch, which a reused slot keeps with its timer.
	launch *launch
	lnch   launch
	// start is work bound to the slot once, when its flight is built, so
	// starting a worker copies nothing to the heap.
	start func()

	mu      sync.Mutex
	queue   []job
	busy    bool
	prompt  bool          // set by open: no call on dev can block
	waiting bool          // drain waits on idle for the worker to exit
	idle    chan struct{} // one token per exit drain waited for
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
	s.launch = nil
	if sl, ok := d.(*slow); ok && sl.delay > 0 {
		s.lnch.delay, s.lnch.ready = sl.delay, time.Time{}
		s.launch = &s.lnch
	}
	for sl, ok := d.(*slow); ok; sl, ok = d.(*slow) {
		d = sl.Device
	}
	s.dev = d
	_, s.prompt = d.(*honest)
}

func (s *slot) enqueue(j job) {
	if s.f.onGather {
		s.queue = append(s.queue, j)
		return
	}
	s.mu.Lock()
	s.queue = append(s.queue, j)
	if s.busy {
		s.mu.Unlock()
		return
	}
	s.busy = true
	s.mu.Unlock()
	s.f.refs.Add(1)
	go s.start()
}

// work runs the slot's queue, front first, until it is empty. The worker
// lets go of the flight before it tells a waiting drain it is done, so a
// flight whose slots all drained is released by End itself.
func (s *slot) work() {
	s.mu.Lock()
	for len(s.queue) > 0 {
		j := s.queue[0]
		n := copy(s.queue, s.queue[1:])
		s.queue[n] = job{} // the vacated tail keeps no layer alive
		s.queue = s.queue[:n]
		s.mu.Unlock()
		j.p.run(s, j.entry, nil)
		s.mu.Lock()
	}
	s.busy = false
	waiting := s.waiting
	s.waiting = false
	s.mu.Unlock()
	s.f.unref()
	if waiting {
		s.idle <- struct{}{}
	}
}

// idleFlights holds released flights for reuse, newest last.
var idleFlights struct {
	sync.Mutex
	free []*BlockFlight
}

// maxIdleFlights bounds idleFlights: beyond it a released flight is left
// to the garbage collector.
const maxIdleFlights = 64

// NewBlockFlight opens a flight with one slot per device, in gang order,
// reusing a released flight when one is idle. A flight whose slots are all
// prompt runs its jobs on the goroutine that gathers them: a slot worker's
// start and its handoff back to the lane cost as much as a small kernel.
// The rule is per flight, not per slot: were a flight's prompt slots to
// answer at once while a slot that may block (a chaos actuator, say) kept
// its worker, the prompt answers would always form a straggler quorum
// first, and the other slot's answers — a tamperer's included — would
// never be audited.
func NewBlockFlight(devs []Device, opts BlockOptions) *BlockFlight {
	idleFlights.Lock()
	var f *BlockFlight
	if n := len(idleFlights.free); n > 0 {
		f = idleFlights.free[n-1]
		idleFlights.free[n-1] = nil
		idleFlights.free = idleFlights.free[:n-1]
	}
	idleFlights.Unlock()
	if f == nil {
		f = new(BlockFlight)
	}
	if cap(f.slots) < len(devs) {
		f.slots = make([]slot, len(devs))
	}
	f.slots = f.slots[:len(devs)]
	f.onGather = true
	for i, d := range devs {
		s := &f.slots[i]
		if s.f == nil {
			s.f, s.start, s.idle = f, s.work, make(chan struct{}, 1)
		}
		s.open(d)
		f.onGather = f.onGather && s.prompt
	}
	f.opts, f.ended = opts, false
	f.refs.Store(1)
	return f
}

// unref drops one hold on the release, releasing the flight with the last.
func (f *BlockFlight) unref() {
	if f.refs.Add(-1) == 0 {
		f.release()
	}
}

// recycleVec hands a late answer back to the kernels' pool.
var recycleVec = field.PutScratchVec

// release recycles the answers no gatherer took, forgets the
// conversation's operands, layers and hooks, and makes the flight idle.
// Nothing runs on the flight any more, so nothing here races.
func (f *BlockFlight) release() {
	for _, p := range f.layers[:f.shipped] {
		p.recycleLate()
		p.fwd, p.bwd, p.from = nil, nil, nil
		clear(p.ops)
		clear(p.results)
	}
	f.shipped = 0
	clear(f.owned)
	f.owned = f.owned[:0]
	f.mem.Reset()
	f.live.Store(0)
	f.opts = BlockOptions{}
	idleFlights.Lock()
	if len(idleFlights.free) < maxIdleFlights {
		idleFlights.free = append(idleFlights.free, f)
	}
	idleFlights.Unlock()
}

// Vec hands out an n-element vector (contents undefined) the flight owns
// until its release: the engine encodes a layer's operands into it, so
// shipping them copies nothing.
func (f *BlockFlight) Vec(n int) field.Vec {
	v := f.mem.Get(n)
	f.owned = append(f.owned, v)
	f.live.Add(1)
	return v
}

// owns reports whether v is a vector Vec handed out. The operands a layer
// ships were handed out last, so the search starts from the newest.
func (f *BlockFlight) owns(v field.Vec) bool {
	if len(v) == 0 {
		return true // nothing to copy
	}
	for i := len(f.owned) - 1; i >= 0; i-- {
		if o := f.owned[i]; len(o) > 0 && &o[0] == &v[0] {
			return true
		}
	}
	return false
}

// adopt returns x as an operand of the flight: x itself when the flight
// owns it, otherwise a copy the flight owns — a caller's own vector is
// copied in at ship time, like the tensor a transfer leaves in device
// memory.
func (f *BlockFlight) adopt(x field.Vec) field.Vec {
	if f.owns(x) {
		return x
	}
	v := f.Vec(len(x))
	copy(v, x)
	return v
}

// launch holds a slow device's answers until its latency has passed since
// the conversation's first job: the latency delays what the TEE hears
// back, not the device's work, so jobs queued behind the first one — the
// rest of the batch's forward layers and its gradient jobs — never wait
// out the launch themselves. One goroutine at a time — the slot's worker,
// or the owner running the slot's queue — starts it, so ready needs no
// lock; held is shared with the timer that releases it. While it holds
// answers the launch holds its flight's release.
type launch struct {
	delay time.Duration
	ready time.Time // zero until the first job ran

	mu    sync.Mutex
	held  []answer // answers waiting for ready, in the order their jobs ran
	timer *time.Timer
}

func (l *launch) start() {
	if l.ready.IsZero() {
		l.ready = time.Now().Add(l.delay)
	}
}

// hold queues a until ready and reports whether it did: once the latency
// has passed, answers leave at once. One timer per conversation releases
// everything held.
func (l *launch) hold(a answer) bool {
	wait := time.Until(l.ready)
	if wait <= 0 {
		return false
	}
	l.mu.Lock()
	l.held = append(l.held, a)
	if len(l.held) == 1 {
		a.p.f.refs.Add(1)
		if l.timer == nil {
			l.timer = time.AfterFunc(wait, l.release)
		} else {
			l.timer.Reset(wait)
		}
	}
	l.mu.Unlock()
	return true
}

// release files the held answers outside the lock, since filing runs the
// flight's hooks. An answer held meanwhile — its hold began just before
// ready — arms no timer of its own: this call files it too, before it lets
// go of the flight.
func (l *launch) release() {
	l.mu.Lock()
	f := l.held[0].p.f
	for len(l.held) > 0 {
		out := l.held
		l.mu.Unlock()
		for i := range out {
			out[i].file()
		}
		l.mu.Lock()
		n := copy(l.held, l.held[len(out):])
		clear(l.held[n:])
		l.held = l.held[:n]
	}
	l.mu.Unlock()
	f.unref()
}

// Slots returns the gang width of the flight.
//
//lint:ignore testonly the leasepair corpus and its seeded mutant in tree_test.go typecheck against it
func (f *BlockFlight) Slots() int { return len(f.slots) }

// Kept returns how many buffers the flight owns and has not yet released:
// its operands, and the answers that landed after their gatherer's
// snapshot — a batch's §6 device-memory footprint. It is 0 once the
// flight is released.
//
//lint:ignore testonly test fixture for the gpu and sched tests
func (f *BlockFlight) Kept() int { return int(f.live.Load()) }

// ForwardLayer ships one layer: slot j computes the kernel on coded[j].
// Returns immediately; gather through the LayerPending. The leading string
// is unused: it remains only because the benchmark harness under bench/
// still passes it.
func (f *BlockFlight) ForwardLayer(_ string, kernel LinearKernel, coded []field.Vec) (*LayerPending, error) {
	if len(coded) != len(f.slots) {
		return nil, fmt.Errorf("gpu: %d coded inputs for flight of %d slots", len(coded), len(f.slots))
	}
	p := f.newPending(len(coded), 0)
	p.fwd = kernel
	for j, x := range coded {
		p.ops[j] = f.adopt(x)
	}
	for j := range coded {
		f.slots[j].enqueue(job{p: p, entry: j})
	}
	return p, nil
}

// GradLayer ships one layer's weight-gradient equations against fwd, a
// forward layer of this flight whose operands the jobs read back: the
// primary equations prim[j] on slots [0, len(prim)) and, when sec is
// non-nil, the equally many redundant-decoding equations sec[j] on the
// flight's last len(sec) slots — [E, S+E) on a flight of S+E slots — so
// the gather can return from whichever window completes first. The result
// order is prim then sec.
func (f *BlockFlight) GradLayer(fwd *LayerPending, kernel BilinearKernel, prim, sec []field.Vec) (*LayerPending, error) {
	if fwd == nil || fwd.f != f || fwd.fwd == nil {
		return nil, errors.New("gpu: gradient layer needs a forward layer of its own flight")
	}
	if len(prim) > len(f.slots) || (sec != nil && len(sec) != len(prim)) {
		return nil, fmt.Errorf("gpu: backward windows (%d primary, %d secondary) for flight of %d slots",
			len(prim), len(sec), len(f.slots))
	}
	p := f.newPending(len(prim), len(sec))
	p.bwd, p.from = kernel, fwd
	for j, d := range prim {
		p.ops[j] = f.adopt(d)
	}
	for j, d := range sec {
		p.ops[len(prim)+j] = f.adopt(d)
	}
	for entry := range p.ops {
		f.slots[p.slot(entry)].enqueue(job{p: p, entry: entry})
	}
	return p, nil
}

// runQueued runs, on the calling goroutine, every job queued on a flight
// that runs its jobs on the gatherer: slot by slot, each slot's in FIFO
// order. It does nothing on a flight with slot workers.
func (f *BlockFlight) runQueued() {
	if !f.onGather {
		return
	}
	for i := range f.slots {
		s := &f.slots[i]
		for k := range s.queue {
			j := s.queue[k]
			s.queue[k] = job{} // the emptied queue keeps no layer alive
			j.p.run(s, j.entry, nil)
		}
		s.queue = s.queue[:0]
	}
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
		s.waiting = true
		s.mu.Unlock()
		<-s.idle
	}
}

// End closes the conversation and fires the OnEnd hook. It waits for no
// device call that can block: a layer that was gathered has nothing left
// running except jobs a quorum decoded around, and on a device that may
// block those finish on their own time. It does see every job shipped to
// a slot whose calls cannot block run — itself, on a flight that runs its
// jobs on the gatherer (runQueued), otherwise by waiting for the slot
// workers (drain) — so the devices' work for the flight, and their traffic
// counters, are complete when the flight ends. The flight is released
// once nothing else holds it: at once when nothing does. The flight is not
// the caller's after End.
func (f *BlockFlight) End() {
	if f.ended {
		return
	}
	f.ended = true
	f.runQueued()
	f.drain()
	if f.opts.OnEnd != nil {
		f.opts.OnEnd()
	}
	f.unref()
}

// LayerPending gathers one layer's in-flight results. It fills job by job,
// so a quorum gather can snapshot as soon as enough of them landed. Its
// jobs form one window (a forward layer, or a backward layer's primary
// equations) or two equally long ones (primary then secondary equations).
// It belongs to its flight, which reuses it after the release.
type LayerPending struct {
	f       *BlockFlight
	fwd     LinearKernel
	bwd     BilinearKernel
	ops     []field.Vec   // the flight-owned operand of each job, in result order
	from    *LayerPending // a gradient layer's forward layer
	window  int           // jobs per window; jobs [window, len(results)) are the secondary window
	secSlot int           // the secondary window's first slot
	shipped time.Time     // when the layer left the TEE (set only when observed)
	wake    chan struct{}
	spec    *time.Timer // the speculation window, armed by a quorum gather
	lag     []int       // speculate's scratch: the entries it re-dispatches

	mu      sync.Mutex
	results []field.Vec
	present []bool
	ok      [2]int // per window: jobs answered
	need    int    // the quorum a parked gatherer waits for; 0 when none is parked
	prompt  bool   // a parked gatherer waits for every prompt slot's job instead
	// A gather hands out every result (all) or a snapshot: snapResults and
	// snapPresent, whose present answers are the gatherer's. Answers that
	// land after it (late, counted) are the flight's.
	all         bool
	snapped     bool
	snapResults []field.Vec
	snapPresent []bool
	late        int
}

// newPending takes the flight's next layer from its pending table, empty.
func (f *BlockFlight) newPending(window, secondary int) *LayerPending {
	if f.shipped == len(f.layers) {
		f.layers = append(f.layers, &LayerPending{f: f, wake: make(chan struct{}, 1)})
	}
	p := f.layers[f.shipped]
	f.shipped++
	n := window + secondary
	p.window, p.secSlot = window, len(f.slots)-secondary
	p.ops = resize(p.ops, n)
	p.results = resize(p.results, n)
	p.present = resize(p.present, n)
	clear(p.present)
	p.ok, p.need, p.prompt = [2]int{}, 0, false
	p.all, p.snapped, p.late = false, false, 0
	p.shipped = time.Time{}
	if f.opts.Observe != nil {
		p.shipped = time.Now()
	}
	return p
}

// resize returns s with length n, reallocated only when it is too short.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// slot returns the gang slot that computes a job.
func (p *LayerPending) slot(entry int) int {
	if entry < p.window {
		return entry
	}
	return p.secSlot + entry - p.window
}

// answer is one job's result on its way to the gatherer: the layer, the
// gang slot and result entry it answers, the result and, for a spare's
// job, what hands the spare back.
type answer struct {
	p           *LayerPending
	slot, entry int
	y           field.Vec
	done        func()
}

// run executes one job in a conversation — the gang slot's own, or, when
// done is non-nil, a spare's — and answers it, then runs done. A slow
// device may hold the answer until its launch latency has passed; the slot
// moves on to its next job meanwhile. A spare feeds no latency
// observation.
func (p *LayerPending) run(s *slot, entry int, done func()) {
	gang := p.slot(entry)
	var y field.Vec
	if p.fwd != nil {
		y = s.dev.LinearForward(p.fwd, p.ops[entry])
	} else {
		y = s.dev.GradWeights(p.bwd, p.ops[entry], p.from.ops[gang])
	}
	a := answer{p: p, slot: gang, entry: entry, y: y, done: done}
	if l := s.launch; l != nil {
		l.start()
		if l.hold(a) {
			return
		}
	}
	a.file()
}

// file files one job's result: the latency observation (a gang slot's
// only), the delivery, then done.
func (a *answer) file() {
	p := a.p
	if a.done == nil && p.f.opts.Observe != nil {
		p.f.opts.Observe(a.slot, time.Since(p.shipped))
	}
	p.deliver(a.entry, a.y)
	if a.done != nil {
		a.done()
	}
}

// settled reports whether a gather for quorum q can return: one window has
// q answers. Caller holds mu.
func (p *LayerPending) settled(q int) bool {
	return p.ok[0] >= q || p.ok[1] >= q
}

// deliver records a job's answer — the first delivery wins — and wakes the
// gatherer when it is the answer the gatherer was waiting for. An answer
// landing after a snapshot is the flight's until a later snapshot takes
// it, or the release recycles it.
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
	if p.snapped {
		p.late++
		p.f.live.Add(1)
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

// snapshot hands the gatherer every answer that has landed: the results
// themselves once all have, otherwise a copy with its presence mask. Late
// answers it takes are no longer the flight's. Caller holds mu.
func (p *LayerPending) snapshot() ([]field.Vec, []bool) {
	if p.late > 0 {
		p.f.live.Add(int64(-p.late))
		p.late = 0
	}
	if p.ok[0]+p.ok[1] == len(p.results) {
		p.all = true
		return p.results, nil
	}
	p.snapped = true
	p.snapResults = append(p.snapResults[:0], p.results...)
	p.snapPresent = append(p.snapPresent[:0], p.present...)
	return p.snapResults, p.snapPresent
}

// recycleLate returns the answers no gather took to the kernels' pool —
// unless the device handed back one of the flight's own operands. Called
// at the release, when no job runs.
func (p *LayerPending) recycleLate() {
	if p.all {
		return
	}
	for entry, got := range p.present {
		if got && !(p.snapped && p.snapPresent[entry]) && !p.f.owns(p.results[entry]) {
			recycleVec(p.results[entry])
		}
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
// time, reading operands the flight keeps until its release. On a flight
// that runs its jobs on the gatherer, every queued job of the flight runs
// first. The returned slices belong to the flight: they stay valid until
// End, and a later gather of the same layer rewrites them.
func (p *LayerPending) WaitQuorum(q int) ([]field.Vec, []bool) {
	if q <= 0 || q > p.window {
		q = p.window
	}
	p.f.runQueued()
	p.mu.Lock()
	if !p.settled(q) {
		armed := false
		if o := &p.f.opts; q < p.window && p.fwd != nil && o.Spare != nil && o.SpeculateAfter > 0 {
			armed = true
			p.f.refs.Add(1)
			if p.spec == nil {
				p.spec = time.AfterFunc(o.SpeculateAfter, p.speculate)
			} else {
				p.spec.Reset(o.SpeculateAfter)
			}
		}
		p.need = q
		p.mu.Unlock()
		<-p.wake
		if armed && p.spec.Stop() {
			p.f.unref() // never fired
		}
		p.mu.Lock()
	}
	results, present := p.snapshot()
	p.mu.Unlock()
	if present != nil && p.f.opts.Straggler != nil {
		for entry, got := range present {
			if !got {
				p.f.opts.Straggler(p.slot(entry))
			}
		}
	}
	return results, present
}

// WaitPrompt blocks until every job of the layer on a slot whose calls
// cannot block — the slots End's drain waits for — has answered, and
// returns the results in job order with a presence mask, as WaitQuorum
// does. A quorum gather that returned around laggards uses it to take in
// the answers bound to land; a job on a slot that may block is never
// waited for. Queued jobs run first, as in WaitQuorum.
func (p *LayerPending) WaitPrompt() ([]field.Vec, []bool) {
	p.f.runQueued()
	p.mu.Lock()
	if !p.promptSettled() {
		p.prompt = true
		p.mu.Unlock()
		<-p.wake
		p.mu.Lock()
	}
	defer p.mu.Unlock()
	return p.snapshot()
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
// soon as no spare is free. It runs on the speculation timer, which holds
// the flight's release until it returns; each spare job holds it until
// the job has answered.
func (p *LayerPending) speculate() {
	defer p.f.unref()
	p.mu.Lock()
	p.lag = p.lag[:0]
	for entry, got := range p.present {
		if !got {
			p.lag = append(p.lag, entry)
		}
	}
	p.mu.Unlock()
	for _, entry := range p.lag {
		dev, done, ok := p.f.opts.Spare(entry)
		if !ok {
			return
		}
		p.f.refs.Add(1)
		go p.spare(dev, entry, done)
	}
}

// spare runs one lagging share on a borrowed device.
func (p *LayerPending) spare(dev Device, entry int, done func(time.Duration)) {
	defer p.f.unref()
	var s slot
	s.open(dev)
	start := time.Now()
	p.run(&s, entry, func() { done(time.Since(start)) })
}

// BeginBlock opens a flight over the first n devices of the cluster: slot
// i is device i.
func (c *Cluster) BeginBlock(n int) (*BlockFlight, error) {
	if n > len(c.devices) {
		return nil, fmt.Errorf("gpu: flight of %d slots for %d devices", n, len(c.devices))
	}
	return NewBlockFlight(c.devices[:n], BlockOptions{}), nil
}
