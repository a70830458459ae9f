package gpu

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"darknight/internal/field"
)

// scriptDevice is the fake a flight test needs: a Device that counts its
// jobs and whose every job first waits for gate (nil = never waits). A
// gated call blocks whoever runs it, so only a spare, which runs its job on
// a goroutine of its own, is ever gated.
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

// hourLate wraps d in a chaos actuator whose answers land an hour after
// their jobs ran: a laggard no gather waits out, until expire lets its
// answers land.
func hourLate(d Device) *ChaosDevice {
	c := NewChaos(d)
	c.SetDelay(time.Hour)
	return c
}

// expire lets every answer slot i of f holds land now: the gate a test
// opens for an hour-late laggard. The held answers keep the flight from
// its release, so its slots are not reused meanwhile.
func expire(f *BlockFlight, i int) {
	l := &f.slots[i].late
	l.mu.Lock()
	defer l.mu.Unlock()
	for k := range l.held {
		l.held[k].at = time.Time{}
	}
	if len(l.held) > 0 {
		l.timer.Reset(0)
	}
}

func vecs(n int, seed field.Elem) []field.Vec {
	out := make([]field.Vec, n)
	for i := range out {
		out[i] = field.Vec{seed + field.Elem(i), 1, 2}
	}
	return out
}

// TestFlightQuorumLeavesLaggardBehind: a gather for n-1 returns while one
// slot's answers are held, brands that slot once per layer, and End does
// not wait for the held answers. The laggard ran each layer's job at its
// gather, in shipping order, and its held answers leave in that order: an
// answer held for less time than the one ahead of it still waits behind
// it.
func TestFlightQuorumLeavesLaggardBehind(t *testing.T) {
	const n = 4
	_, devs := scriptDevices(n)
	lagging := hourLate(devs[1])
	devs[1] = lagging
	var branded []int
	f := NewBlockFlight(devs, BlockOptions{Straggler: func(slot int) { branded = append(branded, slot) }})

	ran := make(chan string, 2) // slot 1's jobs, in the order they ran
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
					t.Fatalf("%s: late slot reported present", key)
				}
				continue
			}
			if !present[j] || !results[j].Equal(field.ScaleVec(3, coded[j])) {
				t.Fatalf("%s: slot %d wrong or absent", key, j)
			}
		}
		lagging.SetDelay(time.Minute) // l2's answer is due before l1's, which is held ahead of it
	}
	f.End() // must return with slot 1's answers still held
	if len(branded) != 2 || branded[0] != 1 || branded[1] != 1 {
		t.Fatalf("straggler brands = %v, want slot 1 once per layer", branded)
	}
	if first, second := <-ran, <-ran; first != "l1" || second != "l2" {
		t.Fatalf("laggard ran its queue as %s, %s: want shipping order", first, second)
	}
	expire(f, 1)
	waitReleased(t, f)
}

// TestFlightBackwardWindows: with both decode windows shipped on S+E slots
// the gather returns from whichever window completes.
func TestFlightBackwardWindows(t *testing.T) {
	const s, e = 3, 2
	identGrad := func(delta, _ field.Vec) field.Vec { return delta }
	open := func(t *testing.T) ([]*ChaosDevice, *BlockFlight, *LayerPending) {
		chaos := make([]*ChaosDevice, s+e)
		devs := make([]Device, s+e)
		for i := range devs {
			chaos[i] = NewChaos(NewHonest(i))
			devs[i] = chaos[i]
		}
		f := NewBlockFlight(devs, BlockOptions{})
		p, err := f.ForwardLayer("", func(x field.Vec) field.Vec { return x }, vecs(s+e, 1))
		if err != nil {
			t.Fatal(err)
		}
		p.Wait()
		return chaos, f, p
	}
	prim, sec := vecs(s, 100), vecs(s, 200)

	for _, c := range []struct {
		name   string
		late   int // primary-exclusive 0, secondary-exclusive s+e-1
		window int // the window that must come back complete
	}{
		{"primary-exclusive laggard", 0, 1},
		{"secondary-exclusive laggard", s + e - 1, 0},
	} {
		t.Run(c.name, func(t *testing.T) {
			chaos, f, fwd := open(t)
			chaos[c.late].SetDelay(time.Hour) // its gradient answer, not its forward one
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
			f.End()
			expire(f, c.late)
			waitReleased(t, f)
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

// TestFlightSpeculationFillsBlockedSlots: with two of four slots' answers
// held an hour a quorum of three can only form through a borrowed spare,
// and the laggards' own late answers land on a layer that has already
// settled.
func TestFlightSpeculationFillsBlockedSlots(t *testing.T) {
	const n = 4
	devs := []Device{NewHonest(0), hourLate(NewHonest(1)), hourLate(NewHonest(2)), NewHonest(3)}
	var lent atomic.Int32
	f := NewBlockFlight(devs, BlockOptions{
		SpeculateAfter: time.Microsecond,
		Spare: func(slot int) (Device, func(time.Duration), bool) {
			id := int(lent.Add(1))
			return NewHonest(n + id), func(time.Duration) {}, true
		},
	})
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
	expire(f, 1)
	expire(f, 2)
	p.Wait() // every slot answered by now or soon: no hang, no double count
	f.End()
	waitReleased(t, f)
}

// TestSlotOpensConversation is the table of what each device composition
// pays: a flight walks a slot's wrapper chain once, when it opens, for the
// launch latency the outermost slow device charges once per conversation
// and for a chaos actuator, which holds each answer. Jobs run on the first
// device below the outer slow wrappers; every other wrapper keeps its
// per-job semantics.
func TestSlotOpensConversation(t *testing.T) {
	const outer, inner = 3 * time.Millisecond, 7 * time.Millisecond
	h := NewHonest(0)
	mal := NewMalicious(h, FaultPolicy{EveryNth: 1})
	chaos := NewChaos(h)
	malChaos := NewMalicious(chaos, FaultPolicy{EveryNth: 1})
	for _, c := range []struct {
		name   string
		dev    Device
		delay  time.Duration // the launch latency; 0 for none
		chaos  *ChaosDevice  // the actuator that holds each answer; nil for none
		runsOn Device        // nil: the device itself
	}{
		{name: "honest", dev: h},
		{name: "slow", dev: NewSlow(h, outer), delay: outer, runsOn: h},
		{name: "slow over slow", dev: NewSlow(NewSlow(h, inner), outer), delay: outer, runsOn: h},
		{name: "slow without delay", dev: NewSlow(h, 0), runsOn: h},
		{name: "slow without delay over slow", dev: NewSlow(NewSlow(h, inner), 0), delay: inner, runsOn: h},
		{name: "malicious", dev: mal},
		{name: "malicious over slow", dev: NewMalicious(NewSlow(h, inner), FaultPolicy{EveryNth: 1}), delay: inner},
		{name: "slow over malicious", dev: NewSlow(mal, outer), delay: outer, runsOn: mal},
		{name: "colluding", dev: NewColluding(h, new(CollusionPool))},
		{name: "chaos", dev: chaos, chaos: chaos},
		{name: "slow over chaos", dev: NewSlow(chaos, outer), delay: outer, chaos: chaos, runsOn: chaos},
		{name: "slow over malicious over chaos", dev: NewSlow(malChaos, outer), delay: outer, chaos: chaos, runsOn: malChaos},
	} {
		t.Run(c.name, func(t *testing.T) {
			var s slot
			s.open(c.dev)
			if s.late.delay != c.delay || s.late.chaos != c.chaos {
				t.Errorf("pays launch %v, chaos %p; want launch %v, chaos %p", s.late.delay, s.late.chaos, c.delay, c.chaos)
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

// TestLateHoldKeepsLaterRelease: on a slot that pays both a launch latency
// and a chaos delay, the first answer leaves at whichever release is later.
func TestLateHoldKeepsLaterRelease(t *testing.T) {
	const short, long = 20 * time.Millisecond, 60 * time.Millisecond
	for _, c := range []struct {
		name          string
		launch, delay time.Duration
	}{
		{"launch later", long, short},
		{"chaos later", short, long},
	} {
		t.Run(c.name, func(t *testing.T) {
			chaos := NewChaos(NewHonest(0))
			chaos.SetDelay(c.delay)
			f := NewBlockFlight([]Device{NewSlow(chaos, c.launch)}, BlockOptions{})
			defer f.End()
			p, err := f.ForwardLayer("", scaleKernel(2), vecs(1, 5))
			if err != nil {
				t.Fatal(err)
			}
			start := time.Now() // the job runs in the gather below
			p.Wait()
			if el := time.Since(start); el < long {
				t.Fatalf("answered %v after the job ran, want the later release, %v", el, long)
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

// TestPromptFlightRunsJobsOnGatherer: a flight runs nothing when it ships. Its first gather runs every queued job
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
	time.Sleep(20 * time.Millisecond) // long enough for a job run off the owner's goroutine to show
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

// TestMixedFlightRunsJobsOnGatherer: a flight with a tamperer and a late
// slot runs its jobs on the gatherer too. Nothing runs when it ships; its
// quorum gather runs every job, the late slot's included, and returns with
// the tamperer's answer and without the late one; End does not wait for
// the held answer.
func TestMixedFlightRunsJobsOnGatherer(t *testing.T) {
	devs := []Device{NewHonest(0), NewMalicious(NewHonest(1), FaultPolicy{EveryNth: 1}), hourLate(NewHonest(2))}
	var branded []int
	f := NewBlockFlight(devs, BlockOptions{Straggler: func(slot int) { branded = append(branded, slot) }})
	var ran atomic.Int32
	kernel := func(x field.Vec) field.Vec {
		ran.Add(1)
		return x
	}
	p, err := f.ForwardLayer("", kernel, vecs(3, 5))
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(20 * time.Millisecond) // long enough for a job run off the owner's goroutine to show
	if n := ran.Load(); n != 0 {
		t.Fatalf("%d kernels ran before any gather", n)
	}
	if _, present := p.WaitQuorum(2); present == nil || !present[0] || !present[1] || present[2] {
		t.Fatalf("quorum gather present %v, want the honest slot and the tamperer", present)
	}
	if len(branded) != 1 || branded[0] != 2 {
		t.Fatalf("straggler brands = %v, want the late slot", branded)
	}
	f.End()
	for i, d := range devs {
		if jobs := d.Traffic().Jobs; jobs != 1 {
			t.Fatalf("device %d counted %d jobs, want 1", i, jobs)
		}
	}
	expire(f, 2)
	waitReleased(t, f)
}

// TestFlightEndRunsEveryPromptJob: End returns once every slot has run
// every job shipped — a slow device's and a late chaos device's included —
// without waiting for a single held answer to land.
func TestFlightEndRunsEveryPromptJob(t *testing.T) {
	devs := []Device{NewHonest(0), NewHonest(1), NewHonest(2)}
	f := NewBlockFlight([]Device{NewSlow(devs[0], time.Hour), devs[1], hourLate(devs[2])}, BlockOptions{})
	ident := func(x field.Vec) field.Vec { return x }
	for range 3 {
		if _, err := f.ForwardLayer("", ident, vecs(3, 5)); err != nil {
			t.Fatal(err)
		}
	}
	f.End() // returns with the answers of slots 0 and 2 held for an hour
	for i, d := range devs {
		if jobs := d.Traffic().Jobs; jobs != 3 {
			t.Fatalf("device %d ran %d jobs by the time End returned, want 3", i, jobs)
		}
	}
	if f.Kept() == 0 {
		t.Fatal("the flight was released while answers were held")
	}
	expire(f, 0)
	expire(f, 2)
	waitReleased(t, f)
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
// shipped, and the flight releases its operands only after the last
// answer a slot holds has landed: a quorum laggard's forward and gradient
// answers, still held when End returns.
func TestMarkedFlightRecyclesAfterLastReader(t *testing.T) {
	const s, e = 3, 2
	const n = s + e
	// Slot 0 is primary-exclusive: the secondary window decodes around it.
	lagging := &scriptDevice{Device: NewHonest(0)}
	devs := []Device{hourLate(lagging)}
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
			t.Fatalf("layer %d: the late slot answered", l)
		}
	}
	f.End() // returns with slot 0's answers still held
	// Two forward layers of n operands and two gradient layers of 2s, all
	// the caller's, so all copied in.
	if k := f.Kept(); k < 2*n+4*s {
		t.Fatalf("the flight owns %d buffers while its laggard's answers are held, want >= %d", k, 2*n+4*s)
	}
	if got := lagging.jobs.Load(); got != 4 {
		t.Fatalf("the laggard ran %d jobs, want its 2 forward and 2 gradient jobs", got)
	}
	// Per layer: S primary and S secondary equations.
	if r, m := reads.Load(), misreads.Load(); r != 4*s || m != 0 {
		t.Fatalf("%d of %d gradient jobs were handed the wrong input", m, r)
	}
	expire(f, 0)
	waitReleased(t, f)
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
	spareGate := make(chan struct{})
	_, devs := scriptDevices(n)
	devs[1], devs[2] = hourLate(devs[1]), hourLate(devs[2])
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
	expire(f, 1)
	expire(f, 2)
	<-gathered
	for _, x := range coded {
		clear(x) // the caller reuses its buffers
	}
	f.End()
	// Whatever else holds the flight — a late answer on its way in, the
	// speculation timer — lets go at once; the gated spare job must not.
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
// laggard's held answers — End returns before they land, and the operands
// their jobs read are still the flight's — and releasing is not a device
// job.
func TestFlightDropRidesBehindLaggard(t *testing.T) {
	const n = 3
	devs := []Device{NewHonest(0), NewHonest(1), NewHonest(2)}
	lagging := &scriptDevice{Device: devs[1]}
	f := NewBlockFlight([]Device{devs[0], hourLate(lagging), devs[2]}, BlockOptions{})
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
	f.End() // returns with the laggard's answers held
	if k := f.Kept(); k != 2*n {
		t.Fatalf("the flight owns %d buffers behind its laggard, want its %d operands", k, 2*n)
	}
	for i := range devs {
		if jobs := devs[i].Traffic().Jobs; jobs != 2 {
			t.Fatalf("device %d counted %d jobs, want 2", i, jobs)
		}
	}
	expire(f, 1)
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
// soon as the forward layer has answered, and a gradient job that no
// gather ran — End runs it — reads the input as it was shipped. Neither
// the caller's vectors nor the flight's operands ever go to the kernels'
// pool.
func TestFlightDropOwnsKeys(t *testing.T) {
	f := NewBlockFlight([]Device{NewHonest(0)}, BlockOptions{})
	coded := vecs(1, 5)
	shipped := coded[0].Clone()
	fwd, err := f.ForwardLayer("", func(x field.Vec) field.Vec { return x }, coded)
	if err != nil {
		t.Fatal(err)
	}
	operand := fwd.Wait()[0] // the identity kernel hands back the flight's copy
	clear(coded[0])          // the caller reuses its buffer for the next layer
	delta := vecs(1, 9)[0]
	var read field.Vec
	if _, err := f.GradLayer(fwd, func(_, x field.Vec) field.Vec {
		read = x.Clone()
		return x.Clone()
	}, []field.Vec{delta}, nil); err != nil {
		t.Fatal(err)
	}
	f.End() // runs the gradient job, then releases the flight
	if read == nil {
		t.Fatal("End returned before the gradient job ran")
	}
	waitReleased(t, f)
	if !read.Equal(shipped) {
		t.Fatalf("the gradient job read %v, want the shipped input %v", read, shipped)
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
	_, devs := scriptDevices(n)
	devs[3] = hourLate(devs[3])
	f := NewBlockFlight(devs, BlockOptions{})
	var late field.Vec
	p, err := f.ForwardLayer("", func(x field.Vec) field.Vec {
		y := x.Clone()  // never a pooled vector, so no earlier test recycled it
		if x[0] == 13 { // slot 3's share
			late = y
		}
		return y
	}, vecs(n, 10))
	if err != nil {
		t.Fatal(err)
	}
	results, present := p.WaitQuorum(n - 1)
	if present == nil || present[3] {
		t.Fatal("the late slot answered before its time")
	}
	taken := append([]field.Vec(nil), results[:3]...)
	f.End()
	expire(f, 3)
	waitReleased(t, f)
	if n := timesRecycled(late); n != 1 {
		t.Fatalf("the late answer went back to the pool %d times, want once", n)
	}
	for j, v := range taken {
		if n := timesRecycled(v); n != 0 {
			t.Fatalf("answer %d, which the gatherer took, went back to the pool %d times", j, n)
		}
	}
}

// TestLaggardHoldsFlightFromReuse: a flight whose laggard's answer is held
// is not handed to the next BeginBlock; once the answer has landed, it is.
func TestLaggardHoldsFlightFromReuse(t *testing.T) {
	const n = 3
	_, devs := scriptDevices(n)
	devs[2] = hourLate(devs[2])
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
		t.Fatal("a flight holding a laggard's answer was handed out again")
	}
	next.End()
	expire(held, 2)
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

// TestTamperFlightBrandsOnlyLateSlots: on a flight that carries a tamperer
// beside two slow devices, a quorum gather decodes around exactly the
// slots whose answers are late. Only the slow slots are ever branded, and
// the tamperer's answer is in every snapshot, so the audit always sees it.
func TestTamperFlightBrandsOnlyLateSlots(t *testing.T) {
	const flights, layers, quorum = 100, 7, 5
	const delay = 2 * time.Millisecond
	ident := func(x field.Vec) field.Vec { return x }
	var brands [6]int
	for range flights {
		devs := []Device{
			NewHonest(0), NewHonest(1), NewMalicious(NewHonest(2), FaultPolicy{EveryNth: 1}),
			NewSlow(NewHonest(3), delay), NewSlow(NewHonest(4), delay), NewHonest(5),
		}
		f := NewBlockFlight(devs, BlockOptions{Straggler: func(slot int) { brands[slot]++ }})
		for l := range layers {
			p, err := f.ForwardLayer("", ident, vecs(len(devs), field.Elem(10*l)))
			if err != nil {
				t.Fatal(err)
			}
			if _, present := p.WaitQuorum(quorum); present != nil && !present[2] {
				t.Fatalf("layer %d: the tamperer's answer is missing from the snapshot", l+1)
			}
		}
		f.End()
	}
	for slot, n := range brands {
		if slot != 3 && slot != 4 && n > 0 {
			t.Fatalf("brands per slot %v: slot %d answers at once but was branded", brands, slot)
		}
	}
}
