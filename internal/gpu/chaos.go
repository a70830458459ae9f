package gpu

import (
	"sync"
	"sync/atomic"
	"time"

	"darknight/internal/field"
)

// ChaosDevice wraps a device with runtime-switchable fault injection — the
// actuator the scripted chaos harness (internal/resil) drives. Unlike the
// construction-time malicious/slow wrappers, every knob here can flip while
// traffic is in flight, which is what device crashes, latency spikes,
// tamper bursts and flapping look like to the serving stack.
//
// Semantics:
//
//   - SetDelay(d) adds d to every job — the latency-spike / straggler knob.
//   - SetTamper(true) corrupts every result — the tamper-burst knob. The
//     coded decode detects and attributes it exactly like a malicious
//     device.
//   - SetDown(true) models a crashed or partitioned device: jobs return
//     instantly with garbage of the right shape. The caller's coded decode
//     rejects the garbage and attributes the slot, so a down device is
//     handled by the same quarantine + retry machinery as a tamperer —
//     deliberately NOT modelled as a hang, because the gang fan-out waits
//     for every device and an unbounded hang would deadlock the flight.
//     (A real RPC stack would surface a fast transport error here; in the
//     simulated fleet "instant garbage" is the equivalent fail-fast
//     signal.) A gradient job whose store is missing fails with
//     ErrNoStored whether or not the device is down, so the miss fails
//     its batch.
//
// All accessors are safe for concurrent use.
type ChaosDevice struct {
	Device
	delay  atomic.Int64 // nanoseconds added per job
	tamper atomic.Bool
	down   atomic.Bool

	mu sync.Mutex
	// actions counts state flips, faults counts jobs answered while
	// down/tampering — the chaos audit trail.
	actions int64
	faults  int64
}

// NewChaos wraps a device with runtime fault injection, initially clean.
func NewChaos(inner Device) *ChaosDevice {
	return &ChaosDevice{Device: inner}
}

// SetDelay sets the added per-job latency (0 restores full speed).
func (c *ChaosDevice) SetDelay(d time.Duration) {
	c.delay.Store(int64(d))
	c.noteAction()
}

// SetTamper switches result corruption on or off.
func (c *ChaosDevice) SetTamper(on bool) {
	c.tamper.Store(on)
	c.noteAction()
}

// SetDown switches the crashed/partitioned state on or off.
func (c *ChaosDevice) SetDown(on bool) {
	c.down.Store(on)
	c.noteAction()
}

// Down reports whether the device is currently in the crashed state.
//
//lint:ignore testonly test fixture for the resil tests
func (c *ChaosDevice) Down() bool { return c.down.Load() }

func (c *ChaosDevice) noteAction() {
	c.mu.Lock()
	c.actions++
	c.mu.Unlock()
}

func (c *ChaosDevice) noteFault() {
	c.mu.Lock()
	c.faults++
	c.mu.Unlock()
}

// garbage returns an all-ones vector of length n: deterministic, cheap,
// and essentially never a valid coded result, so the redundant decode
// flags the slot.
func garbage(n int) field.Vec {
	out := make(field.Vec, n)
	for i := range out {
		out[i] = 1
	}
	return out
}

func (c *ChaosDevice) LinearForward(key string, kernel LinearKernel, x field.Vec) field.Vec {
	y := c.Device.LinearForward(key, kernel, x)
	if c.down.Load() {
		// Fail fast with the right shape: no injected delay, result
		// unrelated to the inputs. (The inner compute supplies the output
		// geometry; its cost is the honest baseline, so "down" is never
		// slower than healthy.)
		c.noteFault()
		return garbage(len(y))
	}
	if d := c.delay.Load(); d > 0 {
		time.Sleep(time.Duration(d))
	}
	if c.tamper.Load() {
		c.noteFault()
		return corruptVec(y)
	}
	return y
}

func (c *ChaosDevice) GradWeights(key string, kernel BilinearKernel, delta field.Vec) (field.Vec, error) {
	y, err := c.Device.GradWeights(key, kernel, delta)
	if err != nil {
		return nil, err
	}
	if c.down.Load() {
		c.noteFault()
		return garbage(len(y)), nil
	}
	if d := c.delay.Load(); d > 0 {
		time.Sleep(time.Duration(d))
	}
	if c.tamper.Load() {
		c.noteFault()
		return corruptVec(y), nil
	}
	return y, nil
}
