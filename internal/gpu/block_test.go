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
		f.KeepInputs()
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
// Three layers shipped down one flight all run their kernels at once; none
// is answered before the latency has passed since the first job.
func TestSlowTripHoldsAnswersNotWork(t *testing.T) {
	const delay = 300 * time.Millisecond
	f := NewBlockFlight([]Device{NewSlow(NewHonest(0), delay)}, BlockOptions{})
	defer f.End()
	ran := make(chan struct{}, 3)
	kernel := func(x field.Vec) field.Vec {
		ran <- struct{}{}
		return field.ScaleVec(2, x)
	}
	start := time.Now()
	var pending []*LayerPending
	for range 3 {
		p, err := f.ForwardLayer("", kernel, vecs(1, 5))
		if err != nil {
			t.Fatal(err)
		}
		pending = append(pending, p)
	}
	for i := 0; i < 3; i++ {
		select {
		case <-ran:
		case <-time.After(10 * delay):
			t.Fatalf("only %d of 3 kernels ran", i)
		}
	}
	if el := time.Since(start); el >= delay {
		t.Fatalf("the queued kernels ran %v after shipping: they waited out the launch latency (%v)", el, delay)
	}
	for i, p := range pending {
		results := p.Wait()
		if el := time.Since(start); el < delay {
			t.Fatalf("layer %d answered after %v, before the %v launch latency", i+1, el, delay)
		}
		if !results[0].Equal(field.ScaleVec(2, vecs(1, 5)[0])) {
			t.Fatalf("layer %d: wrong result", i+1)
		}
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

// waitIdle waits until slot i has run every job queued on it.
func waitIdle(t *testing.T, f *BlockFlight, i int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		s := &f.slots[i]
		s.mu.Lock()
		busy := s.busy
		s.mu.Unlock()
		if !busy {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("slot %d never went idle", i)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestMarkedFlightRecyclesAfterLastReader: on a flight marked by
// KeepInputs each forward job keeps its coded input, every gradient job on
// its slot — of either backward window — is handed exactly that input,
// and End recycles a slot's inputs only behind the last job queued on it:
// a quorum laggard's forward and gradient jobs, still queued when End
// returns, read theirs afterwards.
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
	f.KeepInputs()
	ident := func(x field.Vec) field.Vec { return x }
	// Each equation is the coded input its slot was sent, so a gradient
	// job handed anything else — another layer's input, a recycled one — is
	// a misread.
	var reads, misreads atomic.Int32
	check := func(delta, x field.Vec) field.Vec {
		reads.Add(1)
		if !x.Equal(delta) {
			misreads.Add(1)
		}
		return delta
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
	for i := 1; i < n; i++ {
		for l, p := range fwd {
			if p.inputs[i] != nil {
				t.Fatalf("slot %d still keeps layer %d's input after End", i, l)
			}
		}
	}
	if got := lagging.jobs.Load(); got != 0 {
		t.Fatalf("the blocked slot ran %d jobs before its gate opened", got)
	}
	close(gate)
	waitIdle(t, f, 0)
	if got := lagging.jobs.Load(); got != 4 {
		t.Fatalf("the laggard ran %d jobs, want its 2 forward and 2 gradient jobs", got)
	}
	// Per layer: S primary and S secondary equations.
	if r, m := reads.Load(), misreads.Load(); r != 4*s || m != 0 {
		t.Fatalf("%d of %d gradient jobs were handed the wrong input", m, r)
	}
	for l, p := range fwd {
		if p.inputs[0] != nil {
			t.Fatalf("the laggard's slot still keeps layer %d's input", l)
		}
	}
	if k := f.Kept(); k != 0 {
		t.Fatalf("the flight still counts %d kept inputs", k)
	}
}

// TestFlightKeepsOnlyForBackward: a flight that is not marked — inference —
// keeps nothing, and GradLayer refuses a forward layer that kept nothing or
// belongs to another flight.
func TestFlightKeepsOnlyForBackward(t *testing.T) {
	const n = 4
	ident := func(x field.Vec) field.Vec { return x }
	identGrad := func(delta, _ field.Vec) field.Vec { return delta }

	inference := NewBlockFlight([]Device{NewHonest(0), NewHonest(1), NewHonest(2), NewHonest(3)}, BlockOptions{})
	p, err := inference.ForwardLayer("", ident, vecs(n, 1))
	if err != nil {
		t.Fatal(err)
	}
	p.Wait()
	if p.inputs != nil || inference.kept != nil || inference.Kept() != 0 {
		t.Fatal("an unmarked flight kept its inputs")
	}
	if _, err := inference.GradLayer(p, identGrad, vecs(n, 1), nil); err == nil {
		t.Fatal("GradLayer accepted a forward layer that kept nothing")
	}
	inference.End()

	training := NewBlockFlight([]Device{NewHonest(0), NewHonest(1), NewHonest(2), NewHonest(3)}, BlockOptions{})
	training.KeepInputs()
	q, err := training.ForwardLayer("", ident, vecs(n, 1))
	if err != nil {
		t.Fatal(err)
	}
	q.Wait()
	other := NewBlockFlight([]Device{NewHonest(4), NewHonest(5), NewHonest(6), NewHonest(7)}, BlockOptions{})
	other.KeepInputs()
	if _, err := other.GradLayer(q, identGrad, vecs(n, 1), nil); err == nil {
		t.Fatal("GradLayer accepted another flight's forward layer")
	}
	other.End()
	training.End()
}

// TestSpeculativeStoresAreDropped: a share re-run on a spare keeps nothing
// on a marked flight — the gang slot's own job keeps it, where the layer's
// gradient job reads it — and the spare runs that one job and is handed
// back. Slots 1 and 2 block inside their first forward job, so both
// layers' quorums form through spares while the gang slots have not
// reached the second layer: whatever that layer keeps at slots 1 and 2 by
// then a spare kept.
func TestSpeculativeStoresAreDropped(t *testing.T) {
	const n = 4
	ident := func(x field.Vec) field.Vec { return x }
	gate := make(chan struct{})
	scripts, devs := scriptDevices(n)
	scripts[1].gate, scripts[2].gate = gate, gate
	var (
		mu       sync.Mutex
		spares   []Device
		returned sync.WaitGroup
	)
	f := NewBlockFlight(devs, BlockOptions{
		SpeculateAfter: time.Microsecond,
		Spare: func(slot int) (Device, func(time.Duration), bool) {
			mu.Lock()
			defer mu.Unlock()
			d := NewHonest(n + len(spares))
			spares = append(spares, d)
			returned.Add(1)
			return d, func(time.Duration) { returned.Done() }, true
		},
	})
	f.KeepInputs()
	var fwd []*LayerPending
	for l := 0; l < 2; l++ {
		p, err := f.ForwardLayer("", ident, vecs(n, 10))
		if err != nil {
			t.Fatal(err)
		}
		p.WaitQuorum(n - 1)
		fwd = append(fwd, p)
	}
	if fwd[1].inputs[1] != nil || fwd[1].inputs[2] != nil {
		t.Fatal("a spare kept the share it re-ran")
	}
	returned.Wait() // every loan handed back
	mu.Lock()
	if len(spares) == 0 {
		t.Fatal("no share was re-run on a spare")
	}
	for _, d := range spares {
		if jobs := d.Traffic().Jobs; jobs != 1 {
			t.Fatalf("spare %d ran %d jobs, want 1", d.ID(), jobs)
		}
	}
	mu.Unlock()
	close(gate)
	f.End()
	for i := 0; i < n; i++ {
		waitIdle(t, f, i)
		for l, p := range fwd {
			if p.inputs[i] != nil {
				t.Fatalf("slot %d still keeps layer %d's input after End", i, l)
			}
		}
	}
	if k := f.Kept(); k != 0 {
		t.Fatalf("the flight still counts %d kept inputs", k)
	}
}

// TestFlightDropRidesBehindLaggard: End's recycling of a marked flight's
// inputs runs behind a quorum laggard's still-queued forward jobs — the
// inputs they keep late cannot outlive the flight — on every slot, and
// without counting as a device job.
func TestFlightDropRidesBehindLaggard(t *testing.T) {
	const n = 3
	gate := make(chan struct{})
	devs := []Device{NewHonest(0), NewHonest(1), NewHonest(2)}
	lagging := &scriptDevice{Device: devs[1], gate: gate}
	f := NewBlockFlight([]Device{devs[0], lagging, devs[2]}, BlockOptions{})
	f.KeepInputs()
	ident := func(x field.Vec) field.Vec { return x }
	var fwd []*LayerPending
	for l := 0; l < 2; l++ {
		p, err := f.ForwardLayer("", ident, vecs(n, 5))
		if err != nil {
			t.Fatal(err)
		}
		if _, present := p.WaitQuorum(n - 1); present == nil || present[1] {
			t.Fatalf("layer %d: the laggard answered", l)
		}
		fwd = append(fwd, p)
	}
	f.End() // drains the prompt slots, not the gated one
	for _, i := range []int{0, 2} {
		for l, p := range fwd {
			if p.inputs[i] != nil {
				t.Fatalf("slot %d still keeps layer %d's input after End", i, l)
			}
		}
		if jobs := devs[i].Traffic().Jobs; jobs != 2 {
			t.Fatalf("device %d counted %d jobs, want 2 (recycling is not a job)", i, jobs)
		}
	}
	close(gate)
	waitIdle(t, f, 1)
	if got := lagging.jobs.Load(); got != 2 {
		t.Fatalf("the laggard ran %d jobs, want its 2 forward jobs", got)
	}
	for l, p := range fwd {
		if p.inputs[1] != nil {
			t.Fatalf("the laggard kept layer %d's late input past the flight", l)
		}
	}
	if k := f.Kept(); k != 0 {
		t.Fatalf("the flight still counts %d kept inputs", k)
	}
	if jobs := devs[1].Traffic().Jobs; jobs != 2 {
		t.Fatalf("the laggard's device counted %d jobs, want 2 (recycling is not a job)", jobs)
	}
}

// TestFlightDropOwnsKeys: what a flight keeps is its own copy. The caller
// rewrites its coded buffer as soon as the forward layer has answered, and
// a gradient job still queued on a slot that End does not wait for — so
// End has returned before it runs — reads the input as it was shipped; the
// recycling End queued runs only after it.
func TestFlightDropOwnsKeys(t *testing.T) {
	script := &scriptDevice{Device: NewHonest(0)} // may block, as far as the flight can tell
	f := NewBlockFlight([]Device{script}, BlockOptions{})
	f.KeepInputs()
	coded := vecs(1, 5)
	shipped := coded[0].Clone()
	fwd, err := f.ForwardLayer("", func(x field.Vec) field.Vec { return x }, coded)
	if err != nil {
		t.Fatal(err)
	}
	fwd.Wait()
	clear(coded[0]) // the caller reuses its buffer for the next layer
	release := make(chan struct{})
	g, err := f.GradLayer(fwd, func(_, x field.Vec) field.Vec {
		<-release
		return x.Clone()
	}, []field.Vec{vecs(1, 9)[0]}, nil)
	if err != nil {
		t.Fatal(err)
	}
	f.End() // returns with the gradient job still blocked
	if k := f.Kept(); k != 1 {
		t.Fatalf("the flight counts %d kept inputs before its gradient job ran, want 1", k)
	}
	close(release)
	if got := g.Wait()[0]; !got.Equal(shipped) {
		t.Fatalf("the gradient job read %v, want the shipped input %v", got, shipped)
	}
	waitIdle(t, f, 0)
	if k := f.Kept(); k != 0 {
		t.Fatalf("the flight still counts %d kept inputs", k)
	}
}
