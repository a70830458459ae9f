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
//   - SetDelay(d) makes every answer d late — the latency-spike /
//     straggler knob. The call itself returns at once, as every device
//     call does; a flight holds the answer for the delay it reads when the
//     job has run (see slot.open).
//   - SetTamper(true) corrupts every result — the tamper-burst knob. The
//     coded decode detects and attributes it exactly like a malicious
//     device.
//   - SetDown(true) models a crashed or partitioned device: jobs answer at
//     once with garbage of the right shape, and without the delay. The
//     caller's coded decode rejects the garbage and attributes the slot, so
//     a down device is handled by the same quarantine + retry machinery as
//     a tamperer. (A real RPC stack would surface a fast transport error
//     here; in the simulated fleet "instant garbage" is the equivalent
//     fail-fast signal.)
//
// All accessors are safe for concurrent use.
type ChaosDevice struct {
	Device
	delay  atomic.Int64 // nanoseconds each answer is held
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

// SetDelay sets how late each answer lands (0 restores full speed).
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

// lateBy returns how long a flight holds an answer of a job that just
// ran: the delay, except while the device is down, which fails fast.
func (c *ChaosDevice) lateBy() time.Duration {
	if c.down.Load() {
		return 0
	}
	return time.Duration(c.delay.Load())
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

func (c *ChaosDevice) LinearForward(kernel LinearKernel, x field.Vec) field.Vec {
	return c.fault(c.Device.LinearForward(kernel, x))
}

func (c *ChaosDevice) GradWeights(kernel BilinearKernel, delta, x field.Vec) field.Vec {
	return c.fault(c.Device.GradWeights(kernel, delta, x))
}

// fault turns the inner device's result y into the answer the actuator's
// state calls for. A down device fails fast with the right shape: garbage
// unrelated to the inputs. (The inner compute supplies the output
// geometry; its cost is the honest baseline, so "down" is never slower
// than healthy.)
func (c *ChaosDevice) fault(y field.Vec) field.Vec {
	switch {
	case c.down.Load():
		c.noteFault()
		return garbage(len(y))
	case c.tamper.Load():
		c.noteFault()
		return corruptVec(y)
	}
	return y
}
