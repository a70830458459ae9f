package gpu

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"darknight/internal/field"
)

// scriptTrip is the fake a flight test needs: a DeviceTrip whose every job
// waits for gate (nil = never waits), then answers from the wrapped trip or
// with err.
type scriptTrip struct {
	DeviceTrip
	gate <-chan struct{}
	err  error
	jobs atomic.Int32
}

func (t *scriptTrip) LinearForward(key string, kernel LinearKernel, x field.Vec) field.Vec {
	if t.gate != nil {
		<-t.gate
	}
	y := t.DeviceTrip.LinearForward(key, kernel, x)
	t.jobs.Add(1)
	return y
}

func (t *scriptTrip) GradWeights(key string, kernel BilinearKernel, delta field.Vec) (field.Vec, error) {
	if t.gate != nil {
		<-t.gate
	}
	t.jobs.Add(1)
	if t.err != nil {
		return nil, t.err
	}
	return t.DeviceTrip.GradWeights(key, kernel, delta)
}

// scriptTrips opens one scripted trip per honest device.
func scriptTrips(n int) ([]*scriptTrip, []DeviceTrip) {
	scripts := make([]*scriptTrip, n)
	trips := make([]DeviceTrip, n)
	for i := range scripts {
		scripts[i] = &scriptTrip{DeviceTrip: BeginTrip(NewHonest(i))}
		trips[i] = scripts[i]
	}
	return scripts, trips
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
	scripts, trips := scriptTrips(n)
	scripts[1].gate = gate
	var branded []int
	f := NewBlockFlight(trips, BlockOptions{Straggler: func(slot int) { branded = append(branded, slot) }})

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
	open := func(t *testing.T) ([]*scriptTrip, *BlockFlight) {
		scripts, trips := scriptTrips(s + e)
		f := NewBlockFlight(trips, BlockOptions{})
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

// TestFlightFoldsSlotErrors is the one slot-error fold, seen through a
// flight: all-miss failures become a MissingStoreError naming the slots;
// any other failure wins, even when another slot misses.
func TestFlightFoldsSlotErrors(t *testing.T) {
	boom := errors.New("device fell off the bus")
	miss := fmt.Errorf("gpu 7: %w", ErrNoStored)
	for _, c := range []struct {
		name      string
		errs      map[int]error
		dual      bool
		wantBoom  bool
		wantSlots []int
	}{
		{name: "one miss", errs: map[int]error{2: miss}, wantSlots: []int{2}},
		{name: "two misses", errs: map[int]error{0: miss, 2: miss}, wantSlots: []int{0, 2}},
		{name: "real error beside a miss", errs: map[int]error{0: miss, 2: boom}, wantBoom: true},
		{name: "miss beside a real error", errs: map[int]error{0: boom, 2: miss}, wantBoom: true},
		// Slot 2 is in both windows of S=3, E=2: neither can complete.
		{name: "dual windows, shared slot misses", errs: map[int]error{2: miss}, dual: true, wantSlots: []int{2}},
		{name: "dual windows, real error and miss", errs: map[int]error{1: miss, 2: boom, 3: miss}, dual: true, wantBoom: true},
	} {
		t.Run(c.name, func(t *testing.T) {
			const s, e = 3, 2
			n := s
			var sec []field.Vec
			if c.dual {
				n, sec = s+e, vecs(s, 200)
			}
			scripts, trips := scriptTrips(n)
			f := NewBlockFlight(trips, BlockOptions{})
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
			_, _, err = p.WaitQuorum(s)
			if c.wantBoom {
				if !errors.Is(err, boom) {
					t.Fatalf("err = %v, want the device error", err)
				}
				return
			}
			var me *MissingStoreError
			if !errors.As(err, &me) || !errors.Is(err, ErrNoStored) {
				t.Fatalf("err = %v, want *MissingStoreError", err)
			}
			if len(me.Slots) != len(c.wantSlots) {
				t.Fatalf("missing slots %v, want %v", me.Slots, c.wantSlots)
			}
			for i := range me.Slots {
				if me.Slots[i] != c.wantSlots[i] {
					t.Fatalf("missing slots %v, want %v", me.Slots, c.wantSlots)
				}
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
	scripts, trips := scriptTrips(n)
	scripts[1].gate, scripts[2].gate = gate, gate
	var lent atomic.Int32
	f := NewBlockFlight(trips, BlockOptions{
		SpeculateAfter: time.Microsecond,
		Spare: func(slot int) (DeviceTrip, func(time.Duration), bool) {
			id := int(lent.Add(1))
			return BeginTrip(NewHonest(n + id)), func(time.Duration) {}, true
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

// TestSlowTripHoldsAnswersNotWork: a slow device pays its launch latency
// once per trip by holding the trip's answers, not by stalling its slot.
// Three layers shipped down one flight all run their kernels at once; none
// is answered before the latency has passed since the first job.
func TestSlowTripHoldsAnswersNotWork(t *testing.T) {
	const delay = 300 * time.Millisecond
	f := NewBlockFlight([]DeviceTrip{BeginTrip(NewSlow(NewHonest(0), delay))}, BlockOptions{})
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
// trip cannot block has run every job shipped — before a slow device's
// launch latency has let a single answer out — and never waits for a slot
// that may block.
func TestFlightEndRunsEveryPromptJob(t *testing.T) {
	const delay = 300 * time.Millisecond
	devs := []Device{NewHonest(0), NewHonest(1)}
	gate := make(chan struct{})
	defer close(gate)
	blocked := &scriptTrip{DeviceTrip: BeginTrip(NewHonest(2)), gate: gate}
	f := NewBlockFlight([]DeviceTrip{BeginTrip(NewSlow(devs[0], delay)), BeginTrip(devs[1]), blocked}, BlockOptions{})
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
