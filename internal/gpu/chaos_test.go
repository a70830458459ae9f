package gpu

import (
	"testing"
	"time"

	"darknight/internal/field"
)

func TestChaosDeviceCleanPassThrough(t *testing.T) {
	d := NewChaos(NewHonest(0))
	x := field.Vec{1, 2, 3}
	honest := NewHonest(0).LinearForward(scaleKernel(3), x)
	if got := d.LinearForward(scaleKernel(3), x); !got.Equal(honest) {
		t.Errorf("clean chaos device altered the result: %v != %v", got, honest)
	}
	if actions, faults := d.ChaosStats(); actions != 0 || faults != 0 {
		t.Errorf("clean device counted actions=%d faults=%d", actions, faults)
	}
}

func TestChaosDeviceDownReturnsGarbageOfRightShape(t *testing.T) {
	d := NewChaos(NewHonest(0))
	x := field.Vec{1, 2, 3, 4}
	honest := NewHonest(0).LinearForward(scaleKernel(3), x)

	d.SetDown(true)
	got := d.LinearForward(scaleKernel(3), x)
	if len(got) != len(honest) {
		t.Fatalf("down result has wrong shape: %d, want %d", len(got), len(honest))
	}
	if got.Equal(honest) {
		t.Fatal("down device returned the honest result")
	}
	if _, faults := d.ChaosStats(); faults != 1 {
		t.Errorf("faults = %d, want 1", faults)
	}
	// Healing restores honest service — the quarantine re-admission path
	// depends on this.
	d.SetDown(false)
	if got := d.LinearForward(scaleKernel(3), x); !got.Equal(honest) {
		t.Error("healed device still corrupting")
	}
}

func TestChaosDeviceTamperCorrupts(t *testing.T) {
	d := NewChaos(NewHonest(0))
	x := field.Vec{5, 6, 7}
	honest := NewHonest(0).LinearForward(scaleKernel(2), x)
	d.SetTamper(true)
	if got := d.LinearForward(scaleKernel(2), x); got.Equal(honest) {
		t.Fatal("tampering device returned the honest result")
	}
	d.SetTamper(false)
	if got := d.LinearForward(scaleKernel(2), x); !got.Equal(honest) {
		t.Error("tamper cleared but result still corrupt")
	}
}

// TestChaosDeviceDelaySlowsJobs: a chaos delay makes each answer late, not
// the call. The call returns at once, whatever the delay; a flight hears
// the answer no sooner than the delay after the job ran. A job run with
// the delay cleared, or while the device is down, answers as it runs.
func TestChaosDeviceDelaySlowsJobs(t *testing.T) {
	d := NewChaos(NewHonest(0))
	x := field.Vec{1}
	d.SetDelay(time.Hour)
	if got := d.LinearForward(scaleKernel(2), x); !got.Equal(field.ScaleVec(2, x)) {
		t.Fatalf("delayed call answered %v", got) // and it returned: no sleep
	}

	const delay = 5 * time.Millisecond
	d.SetDelay(delay)
	f := NewBlockFlight([]Device{d}, BlockOptions{})
	defer f.End()
	ship := func() *LayerPending {
		p, err := f.ForwardLayer("", scaleKernel(2), vecs(1, 5))
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	start := time.Now() // the job runs in the gather below
	ship().Wait()
	if el := time.Since(start); el < delay {
		t.Errorf("delayed answer landed after %v, want >= %v", el, delay)
	}
	for _, c := range []struct {
		name string
		set  func()
	}{
		{"cleared", func() { d.SetDelay(0) }},
		{"down", func() { d.SetDelay(time.Hour); d.SetDown(true) }},
	} {
		c.set()
		p := ship()
		f.runQueued()
		if p.due[0].After(time.Now()) {
			t.Errorf("%s: the answer was held", c.name)
		}
		p.Wait()
	}
}

func TestChaosDeviceGradWeights(t *testing.T) {
	d := NewChaos(NewHonest(0))
	x := field.Vec{1, 2}
	kernel := func(delta, x field.Vec) field.Vec {
		out := make(field.Vec, len(delta))
		for i := range delta {
			out[i] = field.Mul(delta[i], x[i%len(x)])
		}
		return out
	}
	honest := d.GradWeights(kernel, field.Vec{3, 4}, x)
	d.SetDown(true)
	got := d.GradWeights(kernel, field.Vec{3, 4}, x)
	if len(got) != len(honest) || got.Equal(honest) {
		t.Errorf("down device answered %v, want garbage shaped like %v", got, honest)
	}
}

// ChaosStats reports (state flips applied, jobs answered while faulty).
func (c *ChaosDevice) ChaosStats() (actions, faults int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.actions, c.faults
}
