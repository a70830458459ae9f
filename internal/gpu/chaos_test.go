package gpu

import (
	"errors"
	"testing"
	"time"

	"darknight/internal/field"
)

func TestChaosDeviceCleanPassThrough(t *testing.T) {
	d := NewChaos(NewHonest(0))
	x := field.Vec{1, 2, 3}
	honest := NewHonest(0).LinearForward("k", scaleKernel(3), x)
	if got := d.LinearForward("k", scaleKernel(3), x); !got.Equal(honest) {
		t.Errorf("clean chaos device altered the result: %v != %v", got, honest)
	}
	if actions, faults := d.ChaosStats(); actions != 0 || faults != 0 {
		t.Errorf("clean device counted actions=%d faults=%d", actions, faults)
	}
}

func TestChaosDeviceDownReturnsGarbageOfRightShape(t *testing.T) {
	d := NewChaos(NewHonest(0))
	x := field.Vec{1, 2, 3, 4}
	honest := NewHonest(0).LinearForward("k", scaleKernel(3), x)

	d.SetDown(true)
	got := d.LinearForward("k", scaleKernel(3), x)
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
	if got := d.LinearForward("k", scaleKernel(3), x); !got.Equal(honest) {
		t.Error("healed device still corrupting")
	}
}

func TestChaosDeviceTamperCorrupts(t *testing.T) {
	d := NewChaos(NewHonest(0))
	x := field.Vec{5, 6, 7}
	honest := NewHonest(0).LinearForward("k", scaleKernel(2), x)
	d.SetTamper(true)
	if got := d.LinearForward("k", scaleKernel(2), x); got.Equal(honest) {
		t.Fatal("tampering device returned the honest result")
	}
	d.SetTamper(false)
	if got := d.LinearForward("k", scaleKernel(2), x); !got.Equal(honest) {
		t.Error("tamper cleared but result still corrupt")
	}
}

func TestChaosDeviceDelaySlowsJobs(t *testing.T) {
	d := NewChaos(NewHonest(0))
	x := field.Vec{1}
	d.SetDelay(5 * time.Millisecond)
	start := time.Now()
	d.LinearForward("k", scaleKernel(2), x)
	if el := time.Since(start); el < 5*time.Millisecond {
		t.Errorf("delayed job finished in %v, want >= 5ms", el)
	}
	d.SetDelay(0)
	start = time.Now()
	d.LinearForward("k2", scaleKernel(2), x)
	if el := time.Since(start); el > 2*time.Millisecond {
		t.Errorf("cleared delay still slow: %v", el)
	}
}

func TestChaosDeviceGradWeights(t *testing.T) {
	d := NewChaos(NewHonest(0))
	x := field.Vec{1, 2}
	d.LinearForward("k", scaleKernel(2), x) // store coded input
	kernel := func(delta, x field.Vec) field.Vec {
		out := make(field.Vec, len(delta))
		for i := range delta {
			out[i] = field.Mul(delta[i], x[i%len(x)])
		}
		return out
	}
	honest, err := d.GradWeights("k", kernel, field.Vec{3, 4})
	if err != nil {
		t.Fatalf("GradWeights: %v", err)
	}
	d.SetDown(true)
	got, err := d.GradWeights("k", kernel, field.Vec{3, 4})
	if err != nil {
		t.Fatalf("down GradWeights must fail fast with garbage, not error: %v", err)
	}
	if got.Equal(honest) {
		t.Error("down device returned honest gradients")
	}
	// A missing store fails the job, down or not: the batch must fail
	// loudly, not decode garbage shaped like the delta.
	for _, down := range []bool{true, false} {
		d.SetDown(down)
		if y, err := d.GradWeights("never-stored", kernel, field.Vec{3, 4}); !errors.Is(err, ErrNoStored) || y != nil {
			t.Errorf("down=%v: missing store answered %v, %v; want ErrNoStored", down, y, err)
		}
	}
}

// ChaosStats reports (state flips applied, jobs answered while faulty).
func (c *ChaosDevice) ChaosStats() (actions, faults int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.actions, c.faults
}
