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
// gives its answer a due time instead (see late), and a gather sleeps on
// its own goroutine until a quorum of answers is due, so a quorum gather
// decodes around exactly the slots whose answers are late. Everything
// flight-scoped — a slow device's launch latency, the fleet's handle
// accounting — is paid once per flight; the per-layer math (encode,
// decode, verify) is untouched, which is what keeps outputs bit-identical
// to flying every layer alone.
//
// A flight owns every operand its jobs read and every answer no gather
// took, and releases all of it at one point, End. Its operands are born in
// it (Vec), or copied in when a layer ships a caller's own vector; a
// gradient job reads the operand its slot's forward job was shipped, which
// is what the devices keep between a batch's passes (§6 "Encoded Data
// Storage During Forward Pass"). An answer due after its gatherer's
// snapshot stays the flight's: a later gather of its layer takes it, and
// End recycles whatever no gather took. Every job, a spare's included,
// runs before the gather or End that ran it returns, so nothing reads the
// flight after End: it goes back — its operands, layers, snapshots and
// slot queues — for the next NewBlockFlight at once. So two flights on one
// device — pipelined lanes, or training beside inference — can neither
// alias nor miss each other's operands.
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
	live    atomic.Int64 // flight-owned buffers not yet released (Kept)
	ended   bool
}

// BlockOptions customizes a flight's accounting hooks; the zero value
// dispatches with no observation.
type BlockOptions struct {
	// Observe, when non-nil, receives each gang job's response latency,
	// measured from the moment its layer was shipped until its answer is
	// due — the fleet's health EWMA feed. Each job is observed once: at the
	// gather that takes its answer, or at End when no gather took it.
	Observe func(slot int, lat time.Duration)
	// Straggler, when non-nil, is invoked once for each job a quorum gather
	// returned without.
	Straggler func(slot int)
	// Spare, when non-nil and SpeculateAfter is positive, lends a device
	// outside the gang to a forward layer whose quorum is not due
	// SpeculateAfter into its gather: lagging slots' coded shares are re-run
	// on spares, one at a time, until the quorum is due, and the answer due
	// first wins. done hands the device back, before the gather returns,
	// with the latency its answer's due time gave it; ok is false when none
	// is free.
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
// slots and queues.
type slot struct {
	dev   Device
	late  late // when a slow or chaotic device's answers are due
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
// When the chain has both, the later due time wins. Every other wrapper
// (fault injection, collusion capture) keeps its per-job semantics, so the
// conversation changes what a device costs, never what it computes.
func (s *slot) open(d Device) {
	l := &s.late
	*l = late{}
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
	return f
}

// recycleVec hands an answer no gather took back to the kernels' pool.
var recycleVec = field.PutScratchVec

// release settles the answers no gather took — observes each one's
// latency and recycles it — forgets the conversation's operands, layers
// and hooks, and makes the flight idle. Every job has run, so nothing
// reads the flight any more.
func (f *BlockFlight) release() {
	for _, p := range f.layers[:f.shipped] {
		for entry, got := range p.taken {
			if !got {
				p.observe(entry)
				f.recycle(p.results[entry])
			}
		}
		p.fwd, p.bwd, p.from = nil, nil, nil
		clear(p.ops)
		clear(p.results)
		clear(p.snapResults)
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

// recycle hands an answer that is nobody's back to the kernels' pool —
// unless the device handed back one of the flight's own operands.
func (f *BlockFlight) recycle(y field.Vec) {
	if !f.owns(y) {
		recycleVec(y)
	}
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

// late gives a slot's answers their due times: the device's latency
// delays what the TEE hears back, not the device's work, so jobs queued
// behind the first one — the rest of the batch's forward layers and its
// gradient jobs — never wait it out themselves. A slow device's launch
// holds every answer until its delay has passed since the conversation's
// first job; a chaos actuator holds each answer for the delay it reads
// when the job ran. An answer whose latency has passed is due at once; a
// held answer is never due before one held ahead of it. Only the flight's
// owner runs a slot's jobs, so nothing here needs a lock.
type late struct {
	delay time.Duration // a slow device's launch latency; 0 for none
	ready time.Time     // when the launch latency has passed; zero until the first job ran
	chaos *ChaosDevice  // the actuator whose delay holds each answer; nil for none
	last  time.Time     // when the slot's latest held answer is due
}

// due returns when the answer of a job that ran at now is due.
func (l *late) due(now time.Time) time.Time {
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
		return now
	}
	if at.Before(l.last) {
		at = l.last
	}
	l.last = at
	return at
}

// Slots returns the gang width of the flight.
//
//lint:ignore testonly the leasepair corpus and its seeded mutant in tree_test.go typecheck against it
func (f *BlockFlight) Slots() int { return len(f.slots) }

// Kept returns how many buffers the flight owns and has not yet released:
// its operands, and the answers a gather left behind because they were
// not yet due — a batch's §6 device-memory footprint. It is 0 once the
// flight has ended.
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
		for k, j := range s.queue {
			s.queue[k] = job{} // the emptied queue keeps no layer alive
			p := j.p
			y, due := p.run(s, j.entry)
			p.results[j.entry], p.due[j.entry], p.lat[j.entry] = y, due, due.Sub(p.shipped)
		}
		s.queue = s.queue[:0]
	}
}

// End closes the conversation: it runs every job no gather ran, so the
// devices' work for the flight, and their traffic counters, are complete
// when the flight ends, and waits for no answer that is not yet due. It
// then releases the flight and fires the OnEnd hook. The flight is not the
// caller's after End.
func (f *BlockFlight) End() {
	if f.ended {
		return
	}
	f.ended = true
	f.runQueued()
	onEnd := f.opts.OnEnd
	f.release()
	if onEnd != nil {
		onEnd()
	}
}

// LayerPending gathers one layer's results. Its jobs form one window (a
// forward layer, or a backward layer's primary equations) or two equally
// long ones (primary then secondary equations). Once its jobs have run,
// each entry holds an answer and when it is due, so a quorum gather can
// snapshot as soon as enough of them are. It belongs to its flight, which
// reuses it after the release, and only the flight's owner touches it.
type LayerPending struct {
	f       *BlockFlight
	fwd     LinearKernel
	bwd     BilinearKernel
	ops     []field.Vec   // the flight-owned operand of each job, in result order
	from    *LayerPending // a gradient layer's forward layer
	window  int           // jobs per window; jobs [window, len(results)) are the secondary window
	secSlot int           // the secondary window's first slot
	shipped time.Time     // when the layer left the TEE (set only when observed)

	results []field.Vec     // each job's answer, once it ran
	due     []time.Time     // when each answer is due
	lat     []time.Duration // each gang job's latency, for Observe
	// taken marks the answers a gather handed out: they are the gatherer's.
	// The others are the flight's, and late counts those the last gather
	// left behind. A gather hands out every result, or snapResults with
	// taken as its presence mask.
	taken       []bool
	late        int
	snapResults []field.Vec
}

// newPending takes the flight's next layer from its pending table, empty.
func (f *BlockFlight) newPending(window, secondary int) *LayerPending {
	if f.shipped == len(f.layers) {
		f.layers = append(f.layers, &LayerPending{f: f})
	}
	p := f.layers[f.shipped]
	f.shipped++
	n := window + secondary
	p.window, p.secSlot = window, len(f.slots)-secondary
	p.ops = resize(p.ops, n)
	p.results = resize(p.results, n)
	p.due = resize(p.due, n)
	p.lat = resize(p.lat, n)
	p.taken = resize(p.taken, n)
	clear(p.taken)
	p.late = 0
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

// run executes one job in a conversation — the gang slot's own or a
// spare's — and returns its answer and when the answer is due. The
// conversation moves on to its next job meanwhile.
func (p *LayerPending) run(s *slot, entry int) (field.Vec, time.Time) {
	var y field.Vec
	if p.fwd != nil {
		y = s.dev.LinearForward(p.fwd, p.ops[entry])
	} else {
		y = s.dev.GradWeights(p.bwd, p.ops[entry], p.from.ops[p.slot(entry)])
	}
	return y, s.late.due(time.Now())
}

// observe feeds a gang job's latency to the Observe hook.
func (p *LayerPending) observe(entry int) {
	if o := p.f.opts.Observe; o != nil {
		o(p.slot(entry), p.lat[entry])
	}
}

// quorumDue returns when one window first has q answers due.
func (p *LayerPending) quorumDue(q int) time.Time {
	at := nthDue(p.due[:p.window], q)
	if len(p.due) > p.window {
		if sec := nthDue(p.due[p.window:], q); sec.Before(at) {
			at = sec
		}
	}
	return at
}

// nthDue returns the earliest time by which n of the due times have
// passed; n is at most len(due), and no due time is zero.
func nthDue(due []time.Time, n int) time.Time {
	var at time.Time
	for _, t := range due {
		k := 0
		for _, u := range due {
			if !u.After(t) {
				k++
			}
		}
		if k >= n && (at.IsZero() || t.Before(at)) {
			at = t
		}
	}
	return at
}

// sleepUntil blocks the calling goroutine until t has passed.
func sleepUntil(t time.Time) {
	if d := time.Until(t); d > 0 {
		time.Sleep(d)
	}
}

// take hands the gatherer every answer due by now: the results themselves
// once all are, otherwise a copy with its presence mask, in which an
// answer not yet due is absent. An answer it takes is the gatherer's, and
// its job's latency is observed; the rest stay the flight's.
func (p *LayerPending) take(now time.Time) ([]field.Vec, []bool) {
	late := 0
	for entry, due := range p.due {
		switch {
		case p.taken[entry]:
		case due.After(now):
			late++
		default:
			p.taken[entry] = true
			p.observe(entry)
		}
	}
	p.f.live.Add(int64(late - p.late))
	p.late = late
	if late == 0 {
		return p.results, nil
	}
	p.snapResults = append(p.snapResults[:0], p.results...)
	for entry, got := range p.taken {
		if !got {
			p.snapResults[entry] = nil
		}
	}
	return p.snapResults, p.taken
}

// Wait gathers the layer with no straggler tolerance: a whole window must
// answer.
func (p *LayerPending) Wait() []field.Vec {
	results, _ := p.WaitQuorum(p.window)
	return results
}

// WaitQuorum waits until q answers of one window are due (a q outside
// [1, window] means the whole window) and returns every answer due by
// then, in job order, with a presence mask; a nil mask means every job
// answered. Every queued job of the flight runs first, and the wait is a
// sleep, both on the calling goroutine; an answer due by the time the
// jobs had run counts as due at once. The jobs missing at the end are
// those whose answers are not yet due: they are branded stragglers, and
// their answers stay the flight's — a later gather of the layer takes
// those due by then, and End recycles the rest. The returned slices belong
// to the flight: they stay valid until End, and a later gather of the
// same layer rewrites them.
func (p *LayerPending) WaitQuorum(q int) ([]field.Vec, []bool) {
	if q <= 0 || q > p.window {
		q = p.window
	}
	f := p.f
	f.runQueued()
	at := p.quorumDue(q)
	if o := &f.opts; q < p.window && p.fwd != nil && o.Spare != nil && o.SpeculateAfter > 0 {
		if spec := time.Now().Add(o.SpeculateAfter); at.After(spec) {
			sleepUntil(spec)
			p.speculate(q)
			at = p.quorumDue(q)
		}
	}
	if now := time.Now(); at.Before(now) {
		at = now // every answer due by the time the jobs had run is in
	}
	sleepUntil(at)
	results, present := p.take(at)
	if present != nil && f.opts.Straggler != nil {
		for entry, got := range present {
			if !got {
				f.opts.Straggler(p.slot(entry))
			}
		}
	}
	return results, present
}

// speculate re-runs shares not yet due on borrowed spares, one at a time
// in shipping order, until q answers are due: each in a one-job
// conversation of its own, keeping whichever answer of the share is due
// first. A spare goes back at once, with the latency its answer's due time
// gave it. Best-effort: it stops as soon as no spare is free.
func (p *LayerPending) speculate(q int) {
	for entry := range p.due {
		now := time.Now()
		if !p.quorumDue(q).After(now) {
			return
		}
		if !p.due[entry].After(now) {
			continue
		}
		dev, done, ok := p.f.opts.Spare(entry)
		if !ok {
			return
		}
		var s slot
		s.open(dev)
		y, at := p.run(&s, entry)
		done(at.Sub(now))
		if at.Before(p.due[entry]) {
			y, p.results[entry], p.due[entry] = p.results[entry], y, at
		}
		p.f.recycle(y)
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
