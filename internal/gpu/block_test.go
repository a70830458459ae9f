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
// gated call blocks the gatherer that runs it, so a test that gates a
// device gathers on a goroutine of its own.
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

// hourLate wraps d in a chaos actuator whose answers are due an hour after
// their jobs ran: a laggard no gather waits out, until expire makes its
// answers due.
func hourLate(d Device) *ChaosDevice {
	c := NewChaos(d)
	c.SetDelay(time.Hour)
	return c
}

// expire makes every answer slot i of f holds due now: the gate a test
// opens for an hour-late laggard. Like every gather, it acts as the
// flight's owner.
func expire(f *BlockFlight, i int) {
	now := time.Now()
	for _, p := range f.layers[:f.shipped] {
		for entry, due := range p.due {
			if p.slot(entry) == i && due.After(now) {
				p.due[entry] = now
			}
		}
	}
	f.slots[i].late.last = time.Time{}
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
// not wait for the held answers: it releases the flight at once. The
// laggard ran each layer's job at its gather, in shipping order, and its
// held answers are due in that order: an answer held for less time than
// the one ahead of it is still due no earlier.
func TestFlightQuorumLeavesLaggardBehind(t *testing.T) {
	const n = 4
	_, devs := scriptDevices(n)
	lagging := hourLate(devs[1])
	devs[1] = lagging
	var branded []int
	f := NewBlockFlight(devs, BlockOptions{Straggler: func(slot int) { branded = append(branded, slot) }})

	ran := make(chan string, 2) // slot 1's jobs, in the order they ran
	var pending []*LayerPending
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
		pending = append(pending, p)
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
		lagging.SetDelay(time.Minute) // l2's answer would be due before l1's, which is held ahead of it
	}
	if l1, l2 := pending[0].due[1], pending[1].due[1]; l2.Before(l1) {
		t.Fatalf("l2's answer is due %v before l1's, which was held ahead of it", l1.Sub(l2))
	}
	f.End() // must return with slot 1's answers still held
	requireReleased(t, f)
	if len(branded) != 2 || branded[0] != 1 || branded[1] != 1 {
		t.Fatalf("straggler brands = %v, want slot 1 once per layer", branded)
	}
	if first, second := <-ran, <-ran; first != "l1" || second != "l2" {
		t.Fatalf("laggard ran its queue as %s, %s: want shipping order", first, second)
	}
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
			requireReleased(t, f)
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
// held an hour a quorum of three can only form through a borrowed spare;
// the gather borrows just the one it needs and hands it back before it
// returns, and the laggards' own answers, once due, land on a layer that
// has already settled.
func TestFlightSpeculationFillsBlockedSlots(t *testing.T) {
	const n = 4
	devs := []Device{NewHonest(0), hourLate(NewHonest(1)), hourLate(NewHonest(2)), NewHonest(3)}
	var lent, returned int
	f := NewBlockFlight(devs, BlockOptions{
		SpeculateAfter: time.Microsecond,
		Spare: func(slot int) (Device, func(time.Duration), bool) {
			lent++
			return NewHonest(n + lent), func(time.Duration) { returned++ }, true
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
	if got != n-1 || lent != 1 {
		t.Fatalf("%d present after %d loans, want %d through one loan", got, lent, n-1)
	}
	if returned != lent {
		t.Fatalf("%d of %d spares handed back when the gather returned", returned, lent)
	}
	expire(f, 1)
	expire(f, 2)
	p.Wait() // every slot's answer is due now: no hang, no double count
	f.End()
	requireReleased(t, f)
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
	requireReleased(t, f)
}

// TestFlightEndRunsEveryPromptJob: End returns once every slot has run
// every job shipped — a slow device's and a late chaos device's included —
// without waiting for a single held answer to be due, and has released
// the flight.
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
	requireReleased(t, f)
}

// recycled counts, per vector, the answers no gather took that flights
// handed back to the kernels' pool. The hook is installed before any test
// runs and never changes.
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

// timesRecycled reports how often v went back to the pool as an answer no
// gather took.
func timesRecycled(v field.Vec) int {
	recycled.Lock()
	defer recycled.Unlock()
	return recycled.n[&v[0]]
}

// requireReleased fails unless the flight, which End has released, owns
// nothing any more.
func requireReleased(t *testing.T, f *BlockFlight) {
	t.Helper()
	if k := f.Kept(); k != 0 {
		t.Fatalf("the flight still owns %d buffers after End", k)
	}
}

// TestMarkedFlightRecyclesAfterLastReader: every gradient job — of either
// backward window, a quorum laggard's included — is handed the operand its
// slot's forward job was shipped, and the flight keeps its operands until
// End, their last reader, which releases them at once, with the laggard's
// forward and gradient answers not yet due.
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
	// Two forward layers of n operands and two gradient layers of 2s, all
	// the caller's, so all copied in.
	if k := f.Kept(); k < 2*n+4*s {
		t.Fatalf("the flight owns %d buffers before End, want >= %d", k, 2*n+4*s)
	}
	f.End() // returns with slot 0's answers still held
	requireReleased(t, f)
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
// rewrote its buffer while the gather waited on the spare; the spare runs
// that one job and is handed back before its gather returns. A gated spare
// blocks only the goroutine that gathers.
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
		spares    []*scriptDevice // touched only by the gatherer until it returns
		returned  int
		misreads  atomic.Int32
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
			d := &scriptDevice{Device: &checkDevice{Device: NewHonest(n + len(spares)), check: spareSeen(slot)}, gate: spareGate}
			spares = append(spares, d)
			borrowed <- struct{}{}
			return d, func(time.Duration) { returned++ }, true
		},
	})
	p, err := f.ForwardLayer("", ident, coded)
	if err != nil {
		t.Fatal(err)
	}
	type gathered struct {
		present        []bool
		lent, returned int
	}
	done := make(chan gathered, 1)
	go func() {
		_, present := p.WaitQuorum(n - 1)
		done <- gathered{present, len(spares), returned}
	}()
	<-borrowed // the speculation ran: the quorum cannot form from the gang
	for _, x := range coded {
		clear(x) // the caller reuses its buffers
	}
	select {
	case <-done:
		t.Fatal("the gather returned while a spare job waited at its gate")
	case <-time.After(20 * time.Millisecond):
	}
	close(spareGate)
	g := <-done
	if g.lent == 0 {
		t.Fatal("no share was re-run on a spare")
	}
	if g.returned != g.lent {
		t.Fatalf("%d of %d spares handed back when the gather returned", g.returned, g.lent)
	}
	if g.lent != 1 || g.present == nil || !g.present[1] || g.present[2] {
		t.Fatalf("%d spares lent, present %v: want slot 1's share on the one spare the quorum needs, and slot 2 absent", g.lent, g.present)
	}
	f.End()
	requireReleased(t, f)
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

// TestFlightDropRidesBehindLaggard: the release rides behind a quorum
// laggard's work, not its latency: the laggard ran both its jobs at their
// gathers, End releases the flight at once with its answers not yet due —
// until then they, like the operands their jobs read, are the flight's —
// and releasing is not a device job.
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
	if got := lagging.jobs.Load(); got != 2 {
		t.Fatalf("the laggard ran %d jobs by its second gather, want its 2 forward jobs", got)
	}
	if k := f.Kept(); k != 2*n+2 {
		t.Fatalf("the flight owns %d buffers behind its laggard, want its %d operands and 2 held answers", k, 2*n+2)
	}
	f.End() // returns with the laggard's answers held
	requireReleased(t, f)
	for i := range devs {
		if jobs := devs[i].Traffic().Jobs; jobs != 2 {
			t.Fatalf("device %d counted %d jobs, want 2 (releasing is not a job)", i, jobs)
		}
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
	requireReleased(t, f)
	if !read.Equal(shipped) {
		t.Fatalf("the gradient job read %v, want the shipped input %v", read, shipped)
	}
	for _, v := range []field.Vec{coded[0], delta, operand} {
		if n := timesRecycled(v); n != 0 {
			t.Fatalf("a vector that was no device's answer went to the pool %d times", n)
		}
	}
}

// TestLateAnswerRecycledAtRelease: an answer due after the quorum snapshot
// is the flight's: a later gather of its layer takes it once it is due,
// and otherwise it goes back to the kernels' pool exactly once, at End.
// The answers a gather handed out never do.
func TestLateAnswerRecycledAtRelease(t *testing.T) {
	const n = 4
	_, devs := scriptDevices(n)
	devs[3] = hourLate(devs[3])
	f := NewBlockFlight(devs, BlockOptions{})
	var late, taken []field.Vec // slot 3's answer of each layer; what the gatherer took
	for l := range 2 {
		p, err := f.ForwardLayer("", func(x field.Vec) field.Vec {
			y := x.Clone()  // never a pooled vector, so no earlier test recycled it
			if x[0] == 13 { // slot 3's share
				late = append(late, y)
			}
			return y
		}, vecs(n, 10))
		if err != nil {
			t.Fatal(err)
		}
		results, present := p.WaitQuorum(n - 1)
		if present == nil || present[3] || results[3] != nil {
			t.Fatalf("layer %d: the late slot answered before its time", l)
		}
		taken = append(taken, results[:3]...)
		if l == 1 {
			expire(f, 3) // layer 1's answer too, which no gather takes
			if results := p.Wait(); &results[3][0] != &late[1][0] {
				t.Fatal("the later gather did not take the answer that came due")
			}
			taken = append(taken, late[1])
		}
	}
	f.End()
	requireReleased(t, f)
	if n := timesRecycled(late[0]); n != 1 {
		t.Fatalf("the answer no gather took went back to the pool %d times, want once", n)
	}
	for j, v := range taken {
		if n := timesRecycled(v); n != 0 {
			t.Fatalf("answer %d, which the gatherer took, went back to the pool %d times", j, n)
		}
	}
}

// TestLaggardHoldsFlightFromReuse: a flight whose laggard's answer is not
// yet due is its owner's until End — the next BeginBlock opens another —
// and End hands it to the next BeginBlock at once: the held answer does
// not keep it from reuse.
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
	if _, present := p.WaitQuorum(n - 1); present == nil || present[2] {
		t.Fatal("the laggard answered")
	}
	other, err := c.BeginBlock(n)
	if err != nil {
		t.Fatal(err)
	}
	if other == held {
		t.Fatal("an open flight was handed out again")
	}
	other.End()
	held.End()
	next, err := c.BeginBlock(n)
	if err != nil {
		t.Fatal(err)
	}
	defer next.End()
	if next != held {
		t.Fatal("the flight its laggard's answer was held on was not reused right after End")
	}
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
