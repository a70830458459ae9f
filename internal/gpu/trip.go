package gpu

import (
	"sync"
	"time"

	"darknight/internal/field"
)

// DeviceTrip is one persistent dispatch conversation with a device: the
// channel a flight keeps open so every kernel of a virtual batch — forward
// and backward — rides a single round trip. A trip exposes the same job
// surface as the device, but cost-model wrappers account differently: the
// slow device charges its per-dispatch launch latency once per trip rather
// than once per job — the persistent-kernel / graph-launch amortization
// that makes one flight per batch worthwhile. Behavioural wrappers (fault
// injection, collusion capture) keep their per-job semantics, so a trip
// never changes *what* a device computes, only what a conversation with it
// costs.
type DeviceTrip interface {
	// LinearForward is Device.LinearForward within the trip.
	LinearForward(key string, kernel LinearKernel, x field.Vec) field.Vec
	// GradWeights is Device.GradWeights within the trip.
	GradWeights(key string, kernel BilinearKernel, delta field.Vec) (field.Vec, error)
}

// BeginTrip opens a persistent dispatch conversation on the device. The
// honest device has no per-dispatch cost to amortize, so its trip is the
// device itself; wrappers layer their own trip semantics on top.
func (d *honest) BeginTrip() DeviceTrip { return d }

// BeginTrip keeps fault injection per-job: a tampering device corrupts the
// same job sequence whether the jobs arrive one flight each or all on a
// batch's flight, so integrity detection sees an identical adversary
// either way.
func (m *malicious) BeginTrip() DeviceTrip { return &wrapTrip{m} }

// BeginTrip charges the straggler's launch delay once for the whole trip
// instead of once per job: the delay models dispatch overhead — kernel
// launch, transfer setup — which a persistent conversation pays a single
// time: once per virtual batch.
func (s *slow) BeginTrip() DeviceTrip {
	return &slowTrip{inner: BeginTrip(s.Device), delay: s.delay}
}

// BeginTrip keeps collusion capture per-job: the coalition observes every
// coded vector it is sent regardless of flight batching.
func (c *colluding) BeginTrip() DeviceTrip { return &wrapTrip{c} }

// tripper is the optional upgrade a device implements to customize its
// trip; devices without it fall back to per-job semantics.
type tripper interface {
	BeginTrip() DeviceTrip
}

// BeginTrip opens a trip on any device: the device's own trip if it
// implements one, else a passthrough with unchanged per-job accounting.
func BeginTrip(d Device) DeviceTrip {
	if t, ok := d.(tripper); ok {
		return t.BeginTrip()
	}
	return &wrapTrip{d}
}

// wrapTrip adapts a Device to the trip surface verbatim (per-job
// semantics preserved).
type wrapTrip struct{ d Device }

func (t *wrapTrip) LinearForward(key string, kernel LinearKernel, x field.Vec) field.Vec {
	return t.d.LinearForward(key, kernel, x)
}

func (t *wrapTrip) GradWeights(key string, kernel BilinearKernel, delta field.Vec) (field.Vec, error) {
	return t.d.GradWeights(key, kernel, delta)
}

// slowTrip runs every job the moment its slot reaches it and holds the
// answers until ready, the launch latency after the trip's first job: the
// latency delays what the TEE hears back, not the device's work, so jobs
// queued behind the first one — the rest of the batch's forward layers and
// its gradient jobs — never wait out the launch themselves. A trip
// is driven by one slot worker at a time, so ready needs no lock; held is
// shared with the timer that releases it.
type slowTrip struct {
	inner DeviceTrip
	delay time.Duration
	ready time.Time // zero until the first job ran

	mu   sync.Mutex
	held []func() // answers waiting for ready, in the order their jobs ran
}

func (t *slowTrip) launch() {
	if t.ready.IsZero() {
		t.ready = time.Now().Add(t.delay)
	}
}

// hold queues answer until ready and reports whether it did: once the
// latency has passed, answers leave at once. One timer per trip releases
// everything held.
func (t *slowTrip) hold(answer func()) bool {
	wait := time.Until(t.ready)
	if wait <= 0 {
		return false
	}
	t.mu.Lock()
	t.held = append(t.held, answer)
	first := len(t.held) == 1
	t.mu.Unlock()
	if first {
		time.AfterFunc(wait, t.release)
	}
	return true
}

func (t *slowTrip) release() {
	t.mu.Lock()
	held := t.held
	t.held = nil
	t.mu.Unlock()
	for _, answer := range held {
		answer()
	}
}

func (t *slowTrip) LinearForward(key string, kernel LinearKernel, x field.Vec) field.Vec {
	y := t.inner.LinearForward(key, kernel, x)
	t.launch()
	return y
}

func (t *slowTrip) GradWeights(key string, kernel BilinearKernel, delta field.Vec) (field.Vec, error) {
	y, err := t.inner.GradWeights(key, kernel, delta)
	t.launch()
	return y, err
}
