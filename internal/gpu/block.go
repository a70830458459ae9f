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
// FIFO per slot. Nothing runs the queues until the owner gathers or ends
// the flight: it then runs every queued job itself, slot by slot, before
// it waits. A device call never blocks (see Device); a device's latency
// holds its answer in the flight instead (see slot.open), so a quorum
// gather decodes around exactly the slots whose answers are late.
// Everything flight-scoped — a slow device's launch latency, the fleet's
// handle accounting — is paid once per flight; the per-layer math
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
// answer a slot held has been delivered and every spare job has finished;
// it recycles the late answers, and the flight — its operands, layers,
// snapshots and slot queues — goes back for the next NewBlockFlight. So
// two flights on one device — pipelined lanes, or training beside
// inference — can neither alias nor miss each other's operands, and a
// spare job, the one reader that can still run after its gather, reads
// its operands for as long as it runs.
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
	// slot holding answers, each armed speculation and each spare job.
	refs  atomic.Int32
	live  atomic.Int64 // flight-owned buffers not yet released (Kept)
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
// layer's result order, and the layer's operand of that index its input.
type job struct {
	p     *LayerPending
	entry int
}

// slot is one device conversation: the device its jobs run on, what a
// conversation with it costs — both decided once, when the flight opens —
// and a FIFO of jobs, which only the flight's owner touches: shipping
// appends to it, and a gather or End runs it. A reused flight keeps its
// slots, queues and holds.
type slot struct {
	dev   Device
	late  late // what a slow or chaotic device's answers wait in; a reused slot keeps its timer
	queue []job
}

// open starts the conversation with d, walking its wrapper chain once. A
// device's latency holds its answers, never its calls:
//
//   - A device built by NewSlow, wherever it sits in the chain, charges its
//     delay once per conversation instead of once per job: the delay models
//     dispatch overhead — kernel launch, transfer setup — which a persistent
//     conversation pays a single time, once per virtual batch. Only the
//     outermost nonzero delay counts, and jobs run on the first device
//     below the outer slow wrappers.
//   - A ChaosDevice anywhere in the chain holds each answer for the delay
//     its actuator reads when the job has run.
//
// When the chain has both, the later release wins. Every other wrapper
// (fault injection, collusion capture) keeps its per-job semantics, so the
// conversation changes what a device costs, never what it computes.
func (s *slot) open(d Device) {
	l := &s.late
	l.delay, l.ready, l.chaos = 0, time.Time{}, nil
	s.dev = nil
	var inner Device
	for w := d; w != nil; w = inner {
		switch v := w.(type) {
		case *slow:
			if l.delay == 0 {
				l.delay = v.delay // only the outermost nonzero delay counts
			}
			inner = v.Device
			continue
		case *ChaosDevice:
			if l.chaos == nil {
				l.chaos = v
			}
			inner = v.Device
		case *malicious:
			inner = v.Device
		case *colluding:
			inner = v.Device
		default:
			inner = nil
		}
		if s.dev == nil {
			s.dev = w // the first device below the outer slow wrappers
		}
	}
}

func (s *slot) enqueue(j job) { s.queue = append(s.queue, j) }

// idleFlights holds released flights for reuse, newest last.
var idleFlights struct {
	sync.Mutex
	free []*BlockFlight
}

// maxIdleFlights bounds idleFlights: beyond it a released flight is left
// to the garbage collector.
const maxIdleFlights = 64

// NewBlockFlight opens a flight with one slot per device, in gang order,
// reusing a released flight when one is idle.
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
	for i, d := range devs {
		f.slots[i].open(d)
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

// late holds a slot's answers until the device's latency has passed: the
// latency delays what the TEE hears back, not the device's work, so jobs
// queued behind the first one — the rest of the batch's forward layers and
// its gradient jobs — never wait it out themselves. A slow device's launch
// holds every answer until its delay has passed since the conversation's
// first job; a chaos actuator holds each answer for its delay from when
// the job ran. An answer whose latency has passed leaves at once; a held
// answer never leaves before one held ahead of it. Only the flight's owner, or a spare job in its
// own conversation, runs a slot's jobs, so ready needs no lock; held is
// shared with the timer that releases it. While it holds answers the slot
// holds its flight's release.
type late struct {
	delay time.Duration // a slow device's launch latency; 0 for none
	ready time.Time     // when the launch latency has passed; zero until the first job ran
	chaos *ChaosDevice  // the actuator whose delay holds each answer; nil for none

	mu    sync.Mutex
	held  []heldAnswer // answers waiting for their release, in the order their jobs ran
	timer *time.Timer
}

// heldAnswer is an answer and when it may leave.
type heldAnswer struct {
	answer
	at time.Time
}

// hold queues a until the device's latency has passed and reports whether
// it did: an answer whose latency has passed leaves at once. One timer per
// slot releases what is held, armed for the oldest answer.
func (l *late) hold(a answer) bool {
	now := time.Now()
	if l.delay > 0 && l.ready.IsZero() {
		l.ready = now.Add(l.delay)
	}
	at := l.ready
	if l.chaos != nil {
		if d := l.chaos.lateBy(); d > 0 && now.Add(d).After(at) {
			at = now.Add(d)
		}
	}
	if !at.After(now) {
		return false
	}
	l.mu.Lock()
	if n := len(l.held); n > 0 && at.Before(l.held[n-1].at) {
		at = l.held[n-1].at
	}
	l.held = append(l.held, heldAnswer{answer: a, at: at})
	if len(l.held) == 1 {
		a.p.f.refs.Add(1)
		if l.timer == nil {
			l.timer = time.AfterFunc(at.Sub(now), l.release)
		} else {
			l.timer.Reset(at.Sub(now))
		}
	}
	l.mu.Unlock()
	return true
}

// release files, outside the lock since filing runs the flight's hooks,
// every held answer whose time has come, oldest first, and arms the timer
// again for the next one. An answer held meanwhile arms no timer of its
// own: this call files it too, or arms the timer for it, before it lets
// go of the flight.
func (l *late) release() {
	l.mu.Lock()
	f := l.held[0].p.f
	for len(l.held) > 0 {
		now := time.Now()
		if wait := l.held[0].at.Sub(now); wait > 0 {
			l.timer.Reset(wait)
			l.mu.Unlock()
			return
		}
		n := 1
		for n < len(l.held) && !l.held[n].at.After(now) {
			n++
		}
		out := l.held[:n]
		l.mu.Unlock()
		for i := range out {
			out[i].file()
		}
		l.mu.Lock()
		k := copy(l.held, l.held[n:])
		clear(l.held[k:])
		l.held = l.held[:k]
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

// runQueued runs, on the calling goroutine, every job queued on the
// flight: slot by slot, each slot's in FIFO order.
func (f *BlockFlight) runQueued() {
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

// End closes the conversation and fires the OnEnd hook. It first runs
// every job no gather ran, so the devices' work for the flight, and their
// traffic counters, are complete when the flight ends; it waits for no
// answer a slot holds. The flight is released once nothing else holds it:
// at once when nothing does. The flight is not the caller's after End.
func (f *BlockFlight) End() {
	if f.ended {
		return
	}
	f.ended = true
	f.runQueued()
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
	need    int    // the answers a parked gatherer waits for; 0 when none is parked
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
	p.ok, p.need = [2]int{}, 0
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
// done is non-nil, a spare's — and answers it, then runs done. The slot
// may hold the answer until the device's latency has passed; it moves on
// to its next job meanwhile. A spare feeds no latency observation.
func (p *LayerPending) run(s *slot, entry int, done func()) {
	gang := p.slot(entry)
	var y field.Vec
	if p.fwd != nil {
		y = s.dev.LinearForward(p.fwd, p.ops[entry])
	} else {
		y = s.dev.GradWeights(p.bwd, p.ops[entry], p.from.ops[gang])
	}
	a := answer{p: p, slot: gang, entry: entry, y: y, done: done}
	if l := &s.late; (l.delay > 0 || l.chaos != nil) && l.hold(a) {
		return
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
	wake := p.need > 0 && p.settled(p.need)
	if wake {
		p.need = 0
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
// with a presence mask; a nil mask means every job answered. Every queued
// job of the flight runs first, so the jobs missing at that point are
// those whose answers a slot still holds, or whose share a spare still
// runs: they are branded stragglers and land on their own time. The
// returned slices belong to the flight: they stay valid until End, and a
// later gather of the same layer rewrites them.
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
