package gpu

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"darknight/internal/field"
)

// scriptDevice is the fake a flight test needs: a Device whose every job
// waits for gate (nil = never waits), then answers from the wrapped device
// or with err. A flight cannot tell it never blocks, so End does not drain
// its slot.
type scriptDevice struct {
	Device
	gate <-chan struct{}
	err  error
	jobs atomic.Int32
}

func (d *scriptDevice) LinearForward(key string, kernel LinearKernel, x field.Vec) field.Vec {
	if d.gate != nil {
		<-d.gate
	}
	y := d.Device.LinearForward(key, kernel, x)
	d.jobs.Add(1)
	return y
}

func (d *scriptDevice) GradWeights(key string, kernel BilinearKernel, delta field.Vec) (field.Vec, error) {
	if d.gate != nil {
		<-d.gate
	}
	d.jobs.Add(1)
	if d.err != nil {
		return nil, d.err
	}
	return d.Device.GradWeights(key, kernel, delta)
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
		p, err := f.ForwardLayer(key, func(x field.Vec) field.Vec {
			if x[0] == 11 { // slot 1's share
				ran <- key
			}
			return field.ScaleVec(3, x)
		}, coded)
		if err != nil {
			t.Fatal(err)
		}
		results, present, err := p.WaitQuorum(n - 1)
		if err != nil {
			t.Fatal(err)
		}
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
// the gather returns from whichever window completes, and a window-shared
// slot's failure fails the layer with the folded error.
func TestFlightBackwardWindows(t *testing.T) {
	const s, e = 3, 2
	identGrad := func(delta, _ field.Vec) field.Vec { return delta }
	open := func(t *testing.T) ([]*scriptDevice, *BlockFlight) {
		scripts, devs := scriptDevices(s + e)
		f := NewBlockFlight(devs, BlockOptions{})
		p, err := f.ForwardLayer("k", func(x field.Vec) field.Vec { return x }, vecs(s+e, 1))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := p.Wait(); err != nil {
			t.Fatal(err)
		}
		return scripts, f
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
			scripts, f := open(t)
			defer f.End()
			scripts[c.blocked].gate = gate
			p, err := f.GradLayer("k", identGrad, prim, sec)
			if err != nil {
				t.Fatal(err)
			}
			eqs, present, err := p.WaitQuorum(s)
			if err != nil {
				t.Fatal(err)
			}
			want := [][]field.Vec{prim, sec}[c.window]
			for j := 0; j < s; j++ {
				if !present[c.window*s+j] || !eqs[c.window*s+j].Equal(want[j]) {
					t.Fatalf("window %d equation %d wrong or absent", c.window, j)
				}
			}
		})
	}

	t.Run("both complete", func(t *testing.T) {
		_, f := open(t)
		defer f.End()
		p, err := f.GradLayer("k", identGrad, prim, sec)
		if err != nil {
			t.Fatal(err)
		}
		// A laggard-free gather may return at the first full window or with
		// everything; either way whatever is present must be right.
		eqs, present, err := p.WaitQuorum(s)
		if err != nil {
			t.Fatal(err)
		}
		want := append(append([]field.Vec{}, prim...), sec...)
		for j, eq := range eqs {
			if (present == nil || present[j]) && !eq.Equal(want[j]) {
				t.Fatalf("equation %d wrong", j)
			}
		}
	})
}

// TestFlightFoldsSlotErrors: a layer that no window completes fails with
// the lowest failed slot's error, whatever kinds of error the slots
// returned — a missing store ranks no lower than any other fault.
func TestFlightFoldsSlotErrors(t *testing.T) {
	boom := errors.New("device fell off the bus")
	miss := func(slot int) error { return fmt.Errorf("gpu %d: %w", slot, ErrNoStored) }
	for _, c := range []struct {
		name string
		errs map[int]error
		dual bool
		low  int // the slot whose error the layer must fail with
	}{
		{name: "one miss", errs: map[int]error{2: miss(2)}, low: 2},
		{name: "two misses", errs: map[int]error{0: miss(0), 2: miss(2)}, low: 0},
		{name: "real error beside a miss", errs: map[int]error{0: miss(0), 2: boom}, low: 0},
		{name: "miss beside a real error", errs: map[int]error{0: boom, 2: miss(2)}, low: 0},
		// Slot 2 is in both windows of S=3, E=2: neither can complete.
		{name: "dual windows, shared slot misses", errs: map[int]error{2: miss(2)}, dual: true, low: 2},
		{name: "dual windows, real error and miss", errs: map[int]error{1: miss(1), 2: boom, 3: miss(3)}, dual: true, low: 1},
	} {
		t.Run(c.name, func(t *testing.T) {
			const s, e = 3, 2
			n := s
			var sec []field.Vec
			if c.dual {
				n, sec = s+e, vecs(s, 200)
			}
			scripts, devs := scriptDevices(n)
			f := NewBlockFlight(devs, BlockOptions{})
			defer f.End()
			stored, err := f.ForwardLayer("k", func(x field.Vec) field.Vec { return x }, vecs(n, 1))
			if err != nil {
				t.Fatal(err)
			}
			if _, err := stored.Wait(); err != nil {
				t.Fatal(err)
			}
			for slot, err := range c.errs {
				scripts[slot].err = err
			}
			p, err := f.GradLayer("k", func(delta, _ field.Vec) field.Vec { return delta }, vecs(s, 100), sec)
			if err != nil {
				t.Fatal(err)
			}
			if _, _, err = p.WaitQuorum(s); !errors.Is(err, c.errs[c.low]) {
				t.Fatalf("err = %v, want slot %d's %v", err, c.low, c.errs[c.low])
			}
		})
	}
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
	p, err := f.ForwardLayer("k", func(x field.Vec) field.Vec { return field.ScaleVec(2, x) }, coded)
	if err != nil {
		t.Fatal(err)
	}
	results, present, err := p.WaitQuorum(n - 1)
	if err != nil {
		t.Fatal(err)
	}
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
	if _, err := p.Wait(); err != nil { // every slot answered by now or soon: no hang, no double count
		t.Fatal(err)
	}
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
		{name: "colluding", dev: NewColluding(h, NewCollusionPool())},
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
	for _, key := range []string{"l1", "l2", "l3"} {
		p, err := f.ForwardLayer(key, kernel, vecs(1, 5))
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
		results, err := p.Wait()
		if err != nil {
			t.Fatal(err)
		}
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
	for _, key := range []string{"l1", "l2", "l3"} {
		if _, err := f.ForwardLayer(key, ident, vecs(3, 5)); err != nil {
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

// TestFlightDropRidesBehindLaggard: a drop shipped while a quorum laggard
// still has its forward job queued runs after that job — the late store
// cannot outlive it — on every slot, and without counting as a device job.
func TestFlightDropRidesBehindLaggard(t *testing.T) {
	const n = 3
	gate := make(chan struct{})
	devs := []Device{NewHonest(0), NewHonest(1), NewHonest(2)}
	lagging := &scriptDevice{Device: devs[1], gate: gate}
	f := NewBlockFlight([]Device{devs[0], lagging, devs[2]}, BlockOptions{})
	ident := func(x field.Vec) field.Vec { return x }
	for _, key := range []string{"step1/lin1", "step1/lin2"} {
		p, err := f.ForwardLayer(key, ident, vecs(n, 5))
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := p.WaitQuorum(n - 1); err != nil {
			t.Fatal(err)
		}
	}
	f.Drop([]string{"step1/lin1", "step1/lin2"})
	f.End() // drains the prompt slots, not the gated one
	for _, i := range []int{0, 2} {
		if s := devs[i].Stored(); s != 0 {
			t.Fatalf("device %d holds %d coded inputs after End", i, s)
		}
		if jobs := devs[i].Traffic().Jobs; jobs != 2 {
			t.Fatalf("device %d counted %d jobs, want 2 (the drop is not a job)", i, jobs)
		}
	}
	close(gate)
	deadline := time.Now().Add(10 * time.Second)
	for lagging.jobs.Load() < 2 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	for devs[1].Stored() != 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if s := devs[1].Stored(); s != 0 {
		t.Fatalf("the laggard kept %d late stores past the drop", s)
	}
}

// TestFlightDropOwnsKeys: Drop copies the caller's key list. A slot whose
// device may block runs its drop after End has returned, by which time the
// caller has cleared the slice for its next batch; the drop must still
// forget the keys it was given.
func TestFlightDropOwnsKeys(t *testing.T) {
	gate := make(chan struct{})
	dev := NewHonest(0)
	gated := &scriptDevice{Device: dev, gate: gate}
	f := NewBlockFlight([]Device{gated}, BlockOptions{})
	keys := []string{"step1/lin1", "step1/lin2"}
	for _, key := range keys {
		if _, err := f.ForwardLayer(key, func(x field.Vec) field.Vec { return x }, vecs(1, 5)); err != nil {
			t.Fatal(err)
		}
	}
	f.Drop(keys)
	clear(keys)
	f.End() // does not drain the gated slot
	close(gate)
	deadline := time.Now().Add(10 * time.Second)
	for (gated.jobs.Load() < 2 || dev.Stored() != 0) && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if s := dev.Stored(); s != 0 {
		t.Fatalf("the device kept %d stores: the drop read the caller's cleared keys", s)
	}
}

// TestSpeculativeStoresAreDropped: a share re-dispatched to a spare is
// stored under its own key that no backward pass reads and no flight owns,
// so the spare forgets it as soon as its job ran — before the spare is
// handed back — and holds nothing once the flight has ended.
func TestSpeculativeStoresAreDropped(t *testing.T) {
	const n = 4
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
	p, err := f.ForwardLayer("k", func(x field.Vec) field.Vec { return x }, vecs(n, 10))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := p.WaitQuorum(n - 1); err != nil {
		t.Fatal(err)
	}
	f.End()
	returned.Wait() // every loan handed back
	mu.Lock()
	defer mu.Unlock()
	if len(spares) == 0 {
		t.Fatal("no share was re-dispatched to a spare")
	}
	for _, d := range spares {
		if s := d.Stored(); s != 0 {
			t.Fatalf("spare %d holds %d speculative stores", d.ID(), s)
		}
		if jobs := d.Traffic().Jobs; jobs != 1 {
			t.Fatalf("spare %d ran %d jobs, want 1", d.ID(), jobs)
		}
	}
	close(gate)
}
