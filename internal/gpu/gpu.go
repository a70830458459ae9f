// Package gpu simulates the untrusted accelerator fleet DarKnight offloads
// its coded linear algebra to. Devices execute the *real* field kernels on
// the coded tensors they receive — functionally exactly what a GPU does to
// masked data — while recording traffic for the performance model and
// optionally misbehaving: injecting faults (the integrity threat, §4.4) or
// pooling their received data with co-conspirators (the collusion threat,
// §4.5).
package gpu

import (
	"math/rand"
	"sync"
	"time"

	"darknight/internal/field"
)

// LinearKernel is a layer's forward linear op y = <W, x> with weights bound
// (the model is public to GPUs; only inputs are coded).
type LinearKernel func(x field.Vec) field.Vec

// BilinearKernel is a layer's weight-gradient op <delta, x>.
type BilinearKernel func(delta, x field.Vec) field.Vec

// Traffic counts the TEE<->GPU channel usage of one device.
type Traffic struct {
	BytesIn  int64 // coded inputs + gradient operands received
	BytesOut int64 // results returned
	Jobs     int64
}

// Device is one simulated accelerator: a stateless kernel runner that
// counts its traffic. What a device keeps between a batch's forward and
// backward passes (§6 "Encoded Data Storage During Forward Pass") belongs
// to the batch's flight, which hands it back to the device with each
// gradient job (see BlockFlight).
//
// A device call never blocks: it computes and returns. A device's latency
// — a slow device's launch, a chaos actuator's delay — holds its answer in
// the flight that ran the job, never the call, so the TEE sees a device
// only through when its answers come back. A flight runs its jobs on the
// goroutine that gathers them, so a call that does block stalls that
// gatherer.
type Device interface {
	// ID returns the device index within the cluster.
	ID() int
	// LinearForward applies the kernel to the coded input and returns the
	// result.
	LinearForward(kernel LinearKernel, x field.Vec) field.Vec
	// GradWeights computes the bilinear gradient equation on the combined
	// delta it received and the coded input x its forward job was sent.
	GradWeights(kernel BilinearKernel, delta, x field.Vec) field.Vec
	// Traffic returns the accumulated channel counters.
	Traffic() Traffic
}

// honest is a faithful accelerator.
type honest struct {
	id      int
	mu      sync.Mutex
	traffic Traffic
}

// NewHonest creates a well-behaved device.
func NewHonest(id int) Device {
	return &honest{id: id}
}

func (d *honest) ID() int { return d.id }

func (d *honest) LinearForward(kernel LinearKernel, x field.Vec) field.Vec {
	y := kernel(x)
	d.count(len(x), len(y))
	return y
}

// GradWeights counts the delta as received: the coded input x is the one
// the device was sent with the layer's forward job.
func (d *honest) GradWeights(kernel BilinearKernel, delta, x field.Vec) field.Vec {
	y := kernel(delta, x)
	d.count(len(delta), len(y))
	return y
}

// count records one job: an operand of in elements received, a result of
// out elements sent back.
func (d *honest) count(in, out int) {
	d.mu.Lock()
	d.traffic.BytesIn += int64(in) * 4
	d.traffic.BytesOut += int64(out) * 4
	d.traffic.Jobs++
	d.mu.Unlock()
}

func (d *honest) Traffic() Traffic {
	d.mu.Lock()
	t := d.traffic
	d.mu.Unlock()
	return t
}

// FaultPolicy decides which jobs a malicious device corrupts. Exactly one
// of EveryNth and Probability should be set; the probabilistic mode draws
// from a policy-private RNG seeded with Seed, so fault-injection runs are
// reproducible — no global randomness is consulted.
type FaultPolicy struct {
	// EveryNth corrupts every n-th job (1 = all jobs). 0 disables.
	EveryNth int
	// Offset delays the first corruption (counting-mode only).
	Offset int
	// Probability corrupts each job independently with this chance,
	// drawn deterministically from a per-policy RNG. 0 disables; when
	// both modes are set, Probability wins.
	Probability float64
	// Seed seeds the probabilistic mode's private RNG. Two devices given
	// the same Seed corrupt the same job sequence.
	Seed int64
}

// malicious wraps an honest device and corrupts selected outputs — the
// dynamic malicious adversary of the threat model.
type malicious struct {
	Device
	policy FaultPolicy
	mu     sync.Mutex
	rng    *rand.Rand // probabilistic mode only; guarded by mu
	count  int
	// Corruptions counts how many results were tampered with.
	corruptions int
}

// NewMalicious wraps a device with a fault policy.
func NewMalicious(inner Device, policy FaultPolicy) Device {
	m := &malicious{Device: inner, policy: policy}
	if policy.Probability > 0 {
		m.rng = rand.New(rand.NewSource(policy.Seed))
	}
	return m
}

func (m *malicious) shouldCorrupt() bool {
	if m.policy.Probability <= 0 && m.policy.EveryNth <= 0 {
		return false
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.count++
	if m.policy.Probability > 0 {
		if m.rng.Float64() < m.policy.Probability {
			m.corruptions++
			return true
		}
		return false
	}
	if m.count <= m.policy.Offset {
		return false
	}
	if (m.count-m.policy.Offset)%m.policy.EveryNth == 0 {
		m.corruptions++
		return true
	}
	return false
}

func corruptVec(v field.Vec) field.Vec {
	out := v.Clone()
	if len(out) > 0 {
		out[0] = field.Add(out[0], 1)
	}
	return out
}

func (m *malicious) LinearForward(kernel LinearKernel, x field.Vec) field.Vec {
	y := m.Device.LinearForward(kernel, x)
	if m.shouldCorrupt() {
		return corruptVec(y)
	}
	return y
}

func (m *malicious) GradWeights(kernel BilinearKernel, delta, x field.Vec) field.Vec {
	y := m.Device.GradWeights(kernel, delta, x)
	if m.shouldCorrupt() {
		return corruptVec(y)
	}
	return y
}

// slow wraps a device whose answers are late by a fixed amount — the
// straggler of distributed-serving folklore: functionally correct, just
// late. The delay is deterministic so straggler experiments reproduce. Its
// calls run the wrapped device at once; a flight holds its answers (see
// slot.open).
type slow struct {
	Device
	delay time.Duration
}

// NewSlow wraps a device so a flight hears back from it delay after the
// flight's first job on it: its launch latency, paid once per flight.
func NewSlow(inner Device, delay time.Duration) Device {
	return &slow{Device: inner, delay: delay}
}

// CollusionPool gathers everything a coalition of devices observed, for the
// privacy experiments: each entry is one coded vector a member received.
// The zero value is an empty pool.
type CollusionPool struct {
	mu    sync.Mutex
	views map[int][]ObservedVec // by the member's forward-job ordinal
}

// ObservedVec is one coalition member's observation.
type ObservedVec struct {
	DeviceID int
	Data     field.Vec
}

// Observations returns the coded inputs the coalition's members received
// as their job-th forward job (counting from 0) — one layer's shares of one
// batch when the members served every forward layer of the same batches.
//
//lint:ignore testonly test fixture for the gpu and sched tests
func (p *CollusionPool) Observations(job int) []ObservedVec {
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]ObservedVec(nil), p.views[job]...)
}

// colluding wraps a device, copying every received coded input into the
// shared pool.
type colluding struct {
	Device
	pool *CollusionPool
	jobs int // forward jobs received; guarded by pool.mu
}

// NewColluding wraps a device so it leaks its inputs to the pool.
//
//lint:ignore testonly test fixture for the gpu and sched tests
func NewColluding(inner Device, pool *CollusionPool) Device {
	return &colluding{Device: inner, pool: pool}
}

func (c *colluding) LinearForward(kernel LinearKernel, x field.Vec) field.Vec {
	c.pool.mu.Lock()
	if c.pool.views == nil {
		c.pool.views = make(map[int][]ObservedVec)
	}
	c.pool.views[c.jobs] = append(c.pool.views[c.jobs], ObservedVec{DeviceID: c.ID(), Data: x.Clone()})
	c.jobs++
	c.pool.mu.Unlock()
	return c.Device.LinearForward(kernel, x)
}
