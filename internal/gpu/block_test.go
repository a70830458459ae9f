package gpu

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"darknight/internal/field"
)

// scriptDevice is the fake a flight test needs: a Device whose every job
// waits for gate (nil = never waits), then answers from the wrapped device.
// A flight cannot tell it never blocks, so End does not drain its slot.
type scriptDevice struct {
	Device
	gate <-chan struct{}
	jobs atomic.Int32
}

func (d *scriptDevice) LinearForward(kernel LinearKernel, x field.Vec) field.Vec {
	if d.gate != nil {
		<-d.gate
	}
	y := d.Device.LinearForward(kernel, x)
	d.jobs.Add(1)
	return y
}

func (d *scriptDevice) GradWeights(kernel BilinearKernel, delta, x field.Vec) field.Vec {
	if d.gate != nil {
		<-d.gate
	}
	d.jobs.Add(1)
	return d.Device.GradWeights(kernel, delta, x)
}

// scriptDevices wraps one honest device per slot in a script.
func scriptDevices(n int) ([]*scriptDevice, []Device) {
	scripts := make([]*scriptDevice, n)
	devs := make([]Device, n)
	for i := range scripts {
		scripts[i] = &scriptDevice{Device: NewHonest(i)}
		devs[i] = scripts[i]
	}
	return scripts, devs
}

func vecs(n int, seed field.Elem) []field.Vec {
	out := make([]field.Vec, n)
	for i := range out {
		out[i] = field.Vec{seed + field.Elem(i), 1, 2}
	}
	return out
}

// TestFlightQuorumLeavesLaggardBehind: a gather for n-1 returns while one
// slot is blocked, End does not wait for it, and the blocked slot still
// runs its queued jobs in shipping order once released.
func TestFlightQuorumLeavesLaggardBehind(t *testing.T) {
	const n = 4
	gate := make(chan struct{})
	scripts, devs := scriptDevices(n)
	scripts[1].gate = gate
	var branded []int
	f := NewBlockFlight(devs, BlockOptions{Straggler: func(slot int) { branded = append(branded, slot) }})

	ran := make(chan string, 2) // slot 1's jobs, in the order its worker ran them
	for _, key := range []string{"l1", "l2"} {
		coded := vecs(n, 10)
		p, err := f.ForwardLayer("", func(x field.Vec) field.Vec {
			if x[0] == 11 { // slot 1's share
				ran <- key
			}
			return field.ScaleVec(3, x)
		}, coded)
		if err != nil {
			t.Fatal(err)
		}
		results, present := p.WaitQuorum(n - 1)
		for j := range coded {
			if j == 1 {
				if present[j] {
					t.Fatalf("%s: blocked slot reported present", key)
				}
				continue
			}
			if !present[j] || !results[j].Equal(field.ScaleVec(3, coded[j])) {
				t.Fatalf("%s: slot %d wrong or absent", key, j)
			}
		}
	}
	f.End() // must return with slot 1 still blocked
	if len(branded) != 2 || branded[0] != 1 || branded[1] != 1 {
		t.Fatalf("straggler brands = %v, want slot 1 once per layer", branded)
	}
	if got := scripts[1].jobs.Load(); got != 0 {
		t.Fatalf("blocked slot ran %d jobs before its gate opened", got)
	}
	close(gate)
	if first, second := <-ran, <-ran; first != "l1" || second != "l2" {
		t.Fatalf("laggard ran its queue as %s, %s: want shipping order", first, second)
	}
}

// TestFlightBackwardWindows: with both decode windows shipped on S+E slots
// the gather returns from whichever window completes.
func TestFlightBackwardWindows(t *testing.T) {
	const s, e = 3, 2
	identGrad := func(delta, _ field.Vec) field.Vec { return delta }
	open := func(t *testing.T) ([]*scriptDevice, *BlockFlight, *LayerPending) {
		scripts, devs := scriptDevices(s + e)
		f := NewBlockFlight(devs, BlockOptions{})
		p, err := f.ForwardLayer("", func(x field.Vec) field.Vec { return x }, vecs(s+e, 1))
		if err != nil {
			t.Fatal(err)
		}
		p.Wait()
		return scripts, f, p
	}
	prim, sec := vecs(s, 100), vecs(s, 200)

	for _, c := range []struct {
		name    string
		blocked int // primary-exclusive 0, secondary-exclusive s+e-1
		window  int // the window that must come back complete
	}{
		{"primary-exclusive laggard", 0, 1},
		{"secondary-exclusive laggard", s + e - 1, 0},
	} {
		t.Run(c.name, func(t *testing.T) {
			gate := make(chan struct{})
			defer close(gate)
			scripts, f, fwd := open(t)
			defer f.End()
			scripts[c.blocked].gate = gate
			p, err := f.GradLayer(fwd, identGrad, prim, sec)
			if err != nil {
				t.Fatal(err)
			}
			eqs, present := p.WaitQuorum(s)
			want := [][]field.Vec{prim, sec}[c.window]
			for j := 0; j < s; j++ {
				if !present[c.window*s+j] || !eqs[c.window*s+j].Equal(want[j]) {
					t.Fatalf("window %d equation %d wrong or absent", c.window, j)
				}
			}
		})
	}

	t.Run("both complete", func(t *testing.T) {
		_, f, fwd := open(t)
		defer f.End()
		p, err := f.GradLayer(fwd, identGrad, prim, sec)
		if err != nil {
			t.Fatal(err)
		}
		// A laggard-free gather may return at the first full window or with
		// everything; either way whatever is present must be right.
		eqs, present := p.WaitQuorum(s)
		want := append(append([]field.Vec{}, prim...), sec...)
		for j, eq := range eqs {
			if (present == nil || present[j]) && !eq.Equal(want[j]) {
				t.Fatalf("equation %d wrong", j)
			}
		}
	})
}

// TestFlightSpeculationFillsBlockedSlots: with two of four slots blocked a
// quorum of three can only form through a borrowed spare, and the laggards'
// own late answers land on a layer that has already settled.
func TestFlightSpeculationFillsBlockedSlots(t *testing.T) {
	const n = 4
	gate := make(chan struct{})
	scripts, devs := scriptDevices(n)
	scripts[1].gate, scripts[2].gate = gate, gate
	var lent atomic.Int32
	f := NewBlockFlight(devs, BlockOptions{
		SpeculateAfter: time.Microsecond,
		Spare: func(slot int) (Device, func(time.Duration), bool) {
			id := int(lent.Add(1))
			return NewHonest(n + id), func(time.Duration) {}, true
		},
	})
	defer f.End()
	coded := vecs(n, 10)
	p, err := f.ForwardLayer("", func(x field.Vec) field.Vec { return field.ScaleVec(2, x) }, coded)
	if err != nil {
		t.Fatal(err)
	}
	results, present := p.WaitQuorum(n - 1)
	got := 0
	for j := range coded {
		if present == nil || present[j] {
			got++
			if !results[j].Equal(field.ScaleVec(2, coded[j])) {
				t.Fatalf("slot %d wrong", j)
			}
		}
	}
	if got < n-1 || lent.Load() == 0 {
		t.Fatalf("%d present after %d loans, want >= %d through a loan", got, lent.Load(), n-1)
	}
	close(gate)
	p.Wait() // every slot answered by now or soon: no hang, no double count
}

// TestSlotOpensConversation: a flight decides once, per slot, whether a
// call on its device can block and what launch latency it pays. Only the
// outermost slow device is a launch, its jobs run on the device below the
// slow ones, and every other wrapper keeps its per-job semantics — a slow
// device inside one included, which no launch replaces.
func TestSlotOpensConversation(t *testing.T) {
	const outer, inner = 3 * time.Millisecond, 7 * time.Millisecond
	h := NewHonest(0)
	mal := NewMalicious(h, FaultPolicy{EveryNth: 1})
	for _, c := range []struct {
		name   string
		dev    Device
		prompt bool
		delay  time.Duration // 0: no launch state
		runsOn Device        // nil: the device itself
	}{
		{name: "honest", dev: h, prompt: true},
		{name: "slow", dev: NewSlow(h, outer), prompt: true, delay: outer, runsOn: h},
		{name: "slow over slow", dev: NewSlow(NewSlow(h, inner), outer), prompt: true, delay: outer, runsOn: h},
		{name: "slow without delay", dev: NewSlow(h, 0), prompt: true, runsOn: h},
		{name: "malicious", dev: mal},
		{name: "malicious over slow", dev: NewMalicious(NewSlow(h, inner), FaultPolicy{EveryNth: 1})},
		{name: "slow over malicious", dev: NewSlow(mal, outer), delay: outer, runsOn: mal},
		{name: "colluding", dev: NewColluding(h, new(CollusionPool))},
		{name: "chaos", dev: NewChaos(h)},
	} {
		t.Run(c.name, func(t *testing.T) {
			var s slot
			s.open(c.dev)
			if s.prompt != c.prompt {
				t.Errorf("prompt = %v, want %v", s.prompt, c.prompt)
			}
			var delay time.Duration
			if s.launch != nil {
				delay = s.launch.delay
			}
			if delay != c.delay || (s.launch != nil) != (c.delay > 0) {
				t.Errorf("launch = %+v, want delay %v", s.launch, c.delay)
			}
			want := c.runsOn
			if want == nil {
				want = c.dev
			}
			if s.dev != want {
				t.Errorf("jobs run on %T, want %T", s.dev, want)
			}
		})
	}
}

// TestSlowTripHoldsAnswersNotWork: a slow device pays its launch latency
// once per flight by holding its slot's answers, not by stalling the slot.
// Three layers shipped down one flight all run their kernels at the first
// gather, well before the latency has passed; none is answered before the
// latency has passed since the first job.
func TestSlowTripHoldsAnswersNotWork(t *testing.T) {
	const delay = 300 * time.Millisecond
	f := NewBlockFlight([]Device{NewSlow(NewHonest(0), delay)}, BlockOptions{})
	defer f.End()
	start := time.Now()
	ran := make(chan time.Duration, 3)
	kernel := func(x field.Vec) field.Vec {
		ran <- time.Since(start)
		return field.ScaleVec(2, x)
	}
	var pending []*LayerPending
	for range 3 {
		p, err := f.ForwardLayer("", kernel, vecs(1, 5))
		if err != nil {
			t.Fatal(err)
		}
		pending = append(pending, p)
	}
	for i, p := range pending {
		results := p.Wait()
		if el := time.Since(start); el < delay {
			t.Fatalf("layer %d answered after %v, before the %v launch latency", i+1, el, delay)
		}
		if !results[0].Equal(field.ScaleVec(2, vecs(1, 5)[0])) {
			t.Fatalf("layer %d: wrong result", i+1)
		}
		if n := len(ran); i == 0 && n != 3 {
			t.Fatalf("the first gather ran %d of 3 kernels", n)
		}
	}
	for i := range 3 {
		if el := <-ran; el >= delay {
			t.Fatalf("kernel %d ran %v after shipping: it waited out the launch latency (%v)", i+1, el, delay)
		}
	}
}

// TestPromptFlightRunsJobsOnGatherer: a flight whose devices cannot block
// runs nothing when it ships. Its first gather runs every queued job
// before it waits, so a quorum gather holds every gang answer, and End
// runs a layer that was shipped but never gathered, so the devices'
// traffic is complete when End returns.
func TestPromptFlightRunsJobsOnGatherer(t *testing.T) {
	devs := []Device{NewHonest(0), NewHonest(1), NewHonest(2)}
	f := NewBlockFlight(devs, BlockOptions{})
	var ran atomic.Int32
	kernel := func(x field.Vec) field.Vec {
		ran.Add(1)
		return field.ScaleVec(2, x)
	}
	p, err := f.ForwardLayer("", kernel, vecs(3, 5))
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(20 * time.Millisecond) // long enough for a slot worker to run
	if n := ran.Load(); n != 0 {
		t.Fatalf("%d kernels ran before any gather", n)
	}
	results, present := p.WaitQuorum(2)
	if present != nil {
		t.Fatalf("the quorum gather returned without answers: present %v", present)
	}
	for j, x := range vecs(3, 5) {
		if !results[j].Equal(field.ScaleVec(2, x)) {
			t.Fatalf("slot %d: wrong result", j)
		}
	}
	if _, err := f.ForwardLayer("", kernel, vecs(3, 7)); err != nil {
		t.Fatal(err)
	}
	f.End()
	if n := ran.Load(); n != 6 {
		t.Fatalf("%d of 6 kernels ran by the time End returned", n)
	}
	for i, d := range devs {
		if jobs := d.Traffic().Jobs; jobs != 2 {
			t.Fatalf("device %d counted %d jobs by the time End returned, want 2", i, jobs)
		}
	}
}

// TestMixedFlightKeepsWorkers: one slot that may block keeps the whole
// flight on slot workers. The honest slots run their kernels with no
// gather, and End does not wait for the blocked slot.
func TestMixedFlightKeepsWorkers(t *testing.T) {
	gate := make(chan struct{})
	defer close(gate)
	devs := []Device{NewHonest(0), NewHonest(1)}
	blocked := &scriptDevice{Device: NewHonest(2), gate: gate}
	f := NewBlockFlight([]Device{devs[0], devs[1], blocked}, BlockOptions{})
	ran := make(chan struct{}, 3)
	kernel := func(x field.Vec) field.Vec {
		ran <- struct{}{}
		return x
	}
	if _, err := f.ForwardLayer("", kernel, vecs(3, 5)); err != nil {
		t.Fatal(err)
	}
	for i := range len(devs) {
		select {
		case <-ran:
		case <-time.After(10 * time.Second):
			t.Fatalf("only %d of %d honest kernels ran without a gather", i, len(devs))
		}
	}
	ended := make(chan struct{})
	go func() {
		f.End()
		close(ended)
	}()
	select {
	case <-ended:
	case <-time.After(10 * time.Second):
		t.Fatal("End waited for the blocked slot")
	}
	for i, d := range devs {
		if jobs := d.Traffic().Jobs; jobs != 1 {
			t.Fatalf("device %d counted %d jobs, want 1", i, jobs)
		}
	}
	if n := blocked.jobs.Load(); n != 0 {
		t.Fatalf("the blocked slot ran %d jobs", n)
	}
}

// TestFlightEndRunsEveryPromptJob: End returns once every slot whose
// device cannot block has run every job shipped — before a slow device's
// launch latency has let a single answer out — and never waits for a slot
// that may block.
func TestFlightEndRunsEveryPromptJob(t *testing.T) {
	const delay = 300 * time.Millisecond
	devs := []Device{NewHonest(0), NewHonest(1)}
	gate := make(chan struct{})
	defer close(gate)
	blocked := &scriptDevice{Device: NewHonest(2), gate: gate}
	f := NewBlockFlight([]Device{NewSlow(devs[0], delay), devs[1], blocked}, BlockOptions{})
	ident := func(x field.Vec) field.Vec { return x }
	start := time.Now()
	for range 3 {
		if _, err := f.ForwardLayer("", ident, vecs(3, 5)); err != nil {
			t.Fatal(err)
		}
	}
	ended := make(chan struct{})
	go func() {
		f.End()
		close(ended)
	}()
	select {
	case <-ended:
	case <-time.After(10 * delay):
		t.Fatal("End waited for the blocked slot")
	}
	if el := time.Since(start); el >= delay {
		t.Fatalf("End returned %v after shipping: it waited for held answers (%v)", el, delay)
	}
	for i, d := range devs {
		if jobs := d.Traffic().Jobs; jobs != 3 {
			t.Fatalf("device %d ran %d jobs by the time End returned, want 3", i, jobs)
		}
	}
	if n := blocked.jobs.Load(); n != 0 {
		t.Fatalf("the blocked slot ran %d jobs", n)
	}
}

// recycled counts, per vector, the late answers flights handed back to the
// kernels' pool. The hook is installed before any test runs and never
// changes, so flights released by earlier tests' laggards race nothing.
var recycled = struct {
	sync.Mutex
	n map[*field.Elem]int
}{n: map[*field.Elem]int{}}

func init() {
	put := recycleVec
	recycleVec = func(v field.Vec) {
		recycled.Lock()
		recycled.n[&v[0]]++
		recycled.Unlock()
		put(v)
	}
}

// timesRecycled reports how often v went back to the pool as a late answer.
func timesRecycled(v field.Vec) int {
	recycled.Lock()
	defer recycled.Unlock()
	return recycled.n[&v[0]]
}

// waitReleased waits until the flight has released everything it owned.
func waitReleased(t *testing.T, f *BlockFlight) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for f.Kept() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("the flight still owns %d buffers", f.Kept())
		}
		time.Sleep(time.Millisecond)
	}
}

// TestMarkedFlightRecyclesAfterLastReader: every gradient job — of either
// backward window — is handed the operand its slot's forward job was
// shipped, and the flight releases its operands only after the last job
// that reads them: a quorum laggard's forward and gradient jobs, still
// queued when End returns, read theirs afterwards.
func TestMarkedFlightRecyclesAfterLastReader(t *testing.T) {
	const s, e = 3, 2
	const n = s + e
	gate := make(chan struct{})
	// Slot 0 is primary-exclusive: the secondary window decodes around it.
	// The rest are honest, so End runs their queues.
	lagging := &scriptDevice{Device: NewHonest(0), gate: gate}
	devs := []Device{lagging}
	for i := 1; i < n; i++ {
		devs = append(devs, NewHonest(i))
	}
	f := NewBlockFlight(devs, BlockOptions{})
	ident := func(x field.Vec) field.Vec { return x.Clone() }
	// Each equation is the coded input its slot was sent, so a gradient
	// job handed anything else — another layer's input, a released one — is
	// a misread.
	var reads, misreads atomic.Int32
	check := func(delta, x field.Vec) field.Vec {
		reads.Add(1)
		if !x.Equal(delta) {
			misreads.Add(1)
		}
		return delta.Clone()
	}
	coded := [][]field.Vec{vecs(n, 10), vecs(n, 20)}
	var fwd []*LayerPending
	for _, c := range coded {
		p, err := f.ForwardLayer("", ident, c)
		if err != nil {
			t.Fatal(err)
		}
		p.WaitQuorum(n - 1)
		fwd = append(fwd, p)
	}
	for l := len(fwd) - 1; l >= 0; l-- {
		p, err := f.GradLayer(fwd[l], check, coded[l][:s], coded[l][e:])
		if err != nil {
			t.Fatal(err)
		}
		if _, present := p.WaitQuorum(s); present == nil || present[0] {
			t.Fatalf("layer %d: the blocked slot answered", l)
		}
	}
	f.End() // returns with slot 0 still blocked
	// Two forward layers of n operands and two gradient layers of 2s, all
	// the caller's, so all copied in.
	if k := f.Kept(); k < 2*n+4*s {
		t.Fatalf("the flight owns %d buffers while its laggard is blocked, want >= %d", k, 2*n+4*s)
	}
	if got := lagging.jobs.Load(); got != 0 {
		t.Fatalf("the blocked slot ran %d jobs before its gate opened", got)
	}
	close(gate)
	waitReleased(t, f)
	if got := lagging.jobs.Load(); got != 4 {
		t.Fatalf("the laggard ran %d jobs, want its 2 forward and 2 gradient jobs", got)
	}
	// Per layer: S primary and S secondary equations.
	if r, m := reads.Load(), misreads.Load(); r != 4*s || m != 0 {
		t.Fatalf("%d of %d gradient jobs were handed the wrong input", m, r)
	}
}

// TestFlightKeepsOnlyForBackward: what a gradient job reads is its forward
// job's operand on the same flight, so GradLayer refuses a layer that is
// not a forward layer of its own flight — another flight's, or a gradient
// layer.
func TestFlightKeepsOnlyForBackward(t *testing.T) {
	const n = 4
	ident := func(x field.Vec) field.Vec { return x }
	identGrad := func(delta, _ field.Vec) field.Vec { return delta }

	training := NewBlockFlight([]Device{NewHonest(0), NewHonest(1), NewHonest(2), NewHonest(3)}, BlockOptions{})
	q, err := training.ForwardLayer("", ident, vecs(n, 1))
	if err != nil {
		t.Fatal(err)
	}
	q.Wait()
	g, err := training.GradLayer(q, identGrad, vecs(n, 1), nil)
	if err != nil {
		t.Fatal(err)
	}
	g.Wait()
	if _, err := training.GradLayer(g, identGrad, vecs(n, 1), nil); err == nil {
		t.Fatal("GradLayer accepted a gradient layer as its forward layer")
	}
	other := NewBlockFlight([]Device{NewHonest(4), NewHonest(5), NewHonest(6), NewHonest(7)}, BlockOptions{})
	if _, err := other.GradLayer(q, identGrad, vecs(n, 1), nil); err == nil {
		t.Fatal("GradLayer accepted another flight's forward layer")
	}
	other.End()
	training.End()
}

// TestSpeculativeStoresAreDropped: a share re-run on a spare under
// SpeculateAfter reads the bytes that were shipped, even after the caller
// rewrote its buffer and the flight ended, and holds the flight's release
// until it has answered; the spare runs that one job and is handed back.
func TestSpeculativeStoresAreDropped(t *testing.T) {
	const n = 4
	ident := func(x field.Vec) field.Vec { return x.Clone() }
	gangGate, spareGate := make(chan struct{}), make(chan struct{})
	scripts, devs := scriptDevices(n)
	scripts[1].gate, scripts[2].gate = gangGate, gangGate
	coded := vecs(n, 10)
	shipped := make([]field.Vec, n)
	for j, x := range coded {
		shipped[j] = x.Clone()
	}
	var (
		mu        sync.Mutex
		spares    []*scriptDevice
		misreads  atomic.Int32
		returned  sync.WaitGroup
		borrowed  = make(chan struct{}, n)
		spareSeen = func(slot int) func(x field.Vec) field.Vec {
			return func(x field.Vec) field.Vec {
				if !x.Equal(shipped[slot]) {
					misreads.Add(1)
				}
				return x.Clone()
			}
		}
	)
	f := NewBlockFlight(devs, BlockOptions{
		SpeculateAfter: time.Microsecond,
		Spare: func(slot int) (Device, func(time.Duration), bool) {
			mu.Lock()
			defer mu.Unlock()
			d := &scriptDevice{Device: &checkDevice{Device: NewHonest(n + len(spares)), check: spareSeen(slot)}, gate: spareGate}
			spares = append(spares, d)
			returned.Add(1)
			borrowed <- struct{}{}
			return d, func(time.Duration) { returned.Done() }, true
		},
	})
	p, err := f.ForwardLayer("", ident, coded)
	if err != nil {
		t.Fatal(err)
	}
	gathered := make(chan []bool, 1)
	go func() {
		_, present := p.WaitQuorum(n - 1)
		gathered <- present
	}()
	<-borrowed // the speculation fired: the quorum cannot form from the gang
	close(gangGate)
	<-gathered
	for _, x := range coded {
		clear(x) // the caller reuses its buffers
	}
	f.End()
	// Whatever else holds the flight — a gang slot's worker on its way out,
	// the speculation timer — lets go at once; the gated spare job must not.
	for deadline := time.Now().Add(50 * time.Millisecond); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		if f.Kept() == 0 {
			t.Fatal("the flight was released while a spare job had not run")
		}
	}
	close(spareGate)
	waitReleased(t, f) // after every spare job, so no loan is still to come
	returned.Wait()    // every loan handed back
	mu.Lock()
	defer mu.Unlock()
	if len(spares) == 0 {
		t.Fatal("no share was re-run on a spare")
	}
	for _, d := range spares {
		if jobs := d.Traffic().Jobs; jobs != 1 {
			t.Fatalf("spare %d ran %d jobs, want 1", d.ID(), jobs)
		}
	}
	if m := misreads.Load(); m != 0 {
		t.Fatalf("%d spare jobs read something other than the shipped share", m)
	}
}

// checkDevice runs check in place of a forward job's kernel.
type checkDevice struct {
	Device
	check func(x field.Vec) field.Vec
}

func (d *checkDevice) LinearForward(_ LinearKernel, x field.Vec) field.Vec {
	return d.Device.LinearForward(d.check, x)
}

// TestFlightDropRidesBehindLaggard: the release waits for a quorum
// laggard's still-queued forward jobs on every slot — End returns before
// them, and the operands they read are still the flight's — and releasing
// is not a device job.
func TestFlightDropRidesBehindLaggard(t *testing.T) {
	const n = 3
	gate := make(chan struct{})
	devs := []Device{NewHonest(0), NewHonest(1), NewHonest(2)}
	lagging := &scriptDevice{Device: devs[1], gate: gate}
	f := NewBlockFlight([]Device{devs[0], lagging, devs[2]}, BlockOptions{})
	ident := func(x field.Vec) field.Vec { return x.Clone() }
	for l := 0; l < 2; l++ {
		p, err := f.ForwardLayer("", ident, vecs(n, 5))
		if err != nil {
			t.Fatal(err)
		}
		if _, present := p.WaitQuorum(n - 1); present == nil || present[1] {
			t.Fatalf("layer %d: the laggard answered", l)
		}
	}
	f.End() // drains the prompt slots, not the gated one
	if k := f.Kept(); k != 2*n {
		t.Fatalf("the flight owns %d buffers behind its laggard, want its %d operands", k, 2*n)
	}
	for _, i := range []int{0, 2} {
		if jobs := devs[i].Traffic().Jobs; jobs != 2 {
			t.Fatalf("device %d counted %d jobs, want 2", i, jobs)
		}
	}
	close(gate)
	waitReleased(t, f)
	if got := lagging.jobs.Load(); got != 2 {
		t.Fatalf("the laggard ran %d jobs, want its 2 forward jobs", got)
	}
	if jobs := devs[1].Traffic().Jobs; jobs != 2 {
		t.Fatalf("the laggard's device counted %d jobs, want 2 (releasing is not a job)", jobs)
	}
}

// TestFlightDropOwnsKeys: what a flight keeps is its own copy of a
// caller's vector, taken at ship time. The caller rewrites its buffer as
// soon as the forward layer has answered, and a gradient job still queued
// on a slot that End does not wait for — so End has returned before it
// runs — reads the input as it was shipped. Neither the caller's vectors
// nor the flight's operands ever go to the kernels' pool.
func TestFlightDropOwnsKeys(t *testing.T) {
	script := &scriptDevice{Device: NewHonest(0)} // may block, as far as the flight can tell
	f := NewBlockFlight([]Device{script}, BlockOptions{})
	coded := vecs(1, 5)
	shipped := coded[0].Clone()
	fwd, err := f.ForwardLayer("", func(x field.Vec) field.Vec { return x }, coded)
	if err != nil {
		t.Fatal(err)
	}
	operand := fwd.Wait()[0] // the identity kernel hands back the flight's copy
	clear(coded[0])          // the caller reuses its buffer for the next layer
	release := make(chan struct{})
	delta := vecs(1, 9)[0]
	read := make(chan field.Vec, 1)
	if _, err := f.GradLayer(fwd, func(_, x field.Vec) field.Vec {
		<-release
		read <- x.Clone()
		return x.Clone()
	}, []field.Vec{delta}, nil); err != nil {
		t.Fatal(err)
	}
	f.End() // returns with the gradient job still blocked
	if k := f.Kept(); k != 2 {
		t.Fatalf("the flight owns %d buffers before its gradient job ran, want its 2 operands", k)
	}
	close(release)
	waitReleased(t, f)
	if got := <-read; !got.Equal(shipped) {
		t.Fatalf("the gradient job read %v, want the shipped input %v", got, shipped)
	}
	for _, v := range []field.Vec{coded[0], delta, operand} {
		if n := timesRecycled(v); n != 0 {
			t.Fatalf("a vector that was no device's answer went to the pool %d times", n)
		}
	}
}

// TestLateAnswerRecycledAtRelease: an answer that lands after the quorum
// snapshot is the flight's, and goes back to the kernels' pool exactly
// once, at the release; the answers the snapshot handed to the gatherer
// never do.
func TestLateAnswerRecycledAtRelease(t *testing.T) {
	const n = 4
	gate := make(chan struct{})
	scripts, devs := scriptDevices(n)
	scripts[3].gate = gate
	f := NewBlockFlight(devs, BlockOptions{})
	var late field.Vec
	var lateMu sync.Mutex
	p, err := f.ForwardLayer("", func(x field.Vec) field.Vec {
		y := x.Clone()  // never a pooled vector, so no earlier test recycled it
		if x[0] == 13 { // slot 3's share
			lateMu.Lock()
			late = y
			lateMu.Unlock()
		}
		return y
	}, vecs(n, 10))
	if err != nil {
		t.Fatal(err)
	}
	results, present := p.WaitQuorum(n - 1)
	if present == nil || present[3] {
		t.Fatal("the gated slot answered before its gate opened")
	}
	taken := append([]field.Vec(nil), results[:3]...)
	f.End()
	close(gate)
	waitReleased(t, f)
	lateMu.Lock()
	defer lateMu.Unlock()
	if n := timesRecycled(late); n != 1 {
		t.Fatalf("the late answer went back to the pool %d times, want once", n)
	}
	for j, v := range taken {
		if n := timesRecycled(v); n != 0 {
			t.Fatalf("answer %d, which the gatherer took, went back to the pool %d times", j, n)
		}
	}
}

// TestLaggardHoldsFlightFromReuse: a flight whose laggard is blocked is not
// handed to the next BeginBlock; once the laggard has run, it is.
func TestLaggardHoldsFlightFromReuse(t *testing.T) {
	const n = 3
	gate := make(chan struct{})
	scripts, devs := scriptDevices(n)
	scripts[2].gate = gate
	c := NewCluster(devs...)
	held, err := c.BeginBlock(n)
	if err != nil {
		t.Fatal(err)
	}
	p, err := held.ForwardLayer("", func(x field.Vec) field.Vec { return x.Clone() }, vecs(n, 1))
	if err != nil {
		t.Fatal(err)
	}
	p.WaitQuorum(n - 1)
	held.End()
	next, err := c.BeginBlock(n)
	if err != nil {
		t.Fatal(err)
	}
	if next == held {
		t.Fatal("a flight held by a blocked laggard was handed out again")
	}
	next.End()
	close(gate)
	waitReleased(t, held)
	var opened []*BlockFlight
	defer func() {
		for _, f := range opened {
			f.End()
		}
	}()
	for range maxIdleFlights + 1 {
		f, err := c.BeginBlock(n)
		if err != nil {
			t.Fatal(err)
		}
		opened = append(opened, f)
		if f == held {
			return
		}
	}
	t.Fatal("the released flight was never handed out again")
}
