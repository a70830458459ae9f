// Package gpu simulates the untrusted accelerator fleet DarKnight offloads
// its coded linear algebra to. Devices execute the *real* field kernels on
// the coded tensors they receive — functionally exactly what a GPU does to
// masked data — while recording traffic for the performance model and
// optionally misbehaving: injecting faults (the integrity threat, §4.4) or
// pooling their received data with co-conspirators (the collusion threat,
// §4.5).
package gpu

import (
	"errors"
	"fmt"
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

// ErrNoStored is the sentinel wrapped by GradWeights when a device holds no
// cached coded forward input under the requested key. A gradient job rides
// its slot's FIFO behind the forward job that stored its key, on a device
// the batch's gang holds until the flight ends, so no device this program
// builds misses: a miss is a fault, and it fails the batch.
var ErrNoStored = errors.New("gpu: no stored coded input")

// Traffic counts the TEE<->GPU channel usage of one device.
type Traffic struct {
	BytesIn  int64 // coded inputs + gradient operands received
	BytesOut int64 // results returned
	Jobs     int64
}

// Device is one simulated accelerator.
type Device interface {
	// ID returns the device index within the cluster.
	ID() int
	// LinearForward applies the kernel to the coded input and returns the
	// result, also caching the coded input under key for backward reuse
	// (§6 "Encoded Data Storage During Forward Pass"). A training batch's
	// stores live from its forward job to the end of the batch's flight,
	// whose last job on each slot drops them (BlockFlight.Drop); inference
	// reuses its keys, so each store overwrites the last, in place: a key
	// that already holds a vector of the same length reuses its buffer.
	LinearForward(key string, kernel LinearKernel, x field.Vec) field.Vec
	// GradWeights computes the bilinear gradient equation on a previously
	// stored coded input (by key) and the combined delta it received.
	GradWeights(key string, kernel BilinearKernel, delta field.Vec) (field.Vec, error)
	// Drop forgets the coded input stored under key, if any. It is
	// bookkeeping, not a job: no traffic is counted.
	Drop(key string)
	// Stored returns how many coded inputs the device currently holds —
	// the §6 "Encoded Data Storage" footprint.
	Stored() int
	// Traffic returns the accumulated channel counters.
	Traffic() Traffic
}

// honest is a faithful accelerator.
type honest struct {
	id      int
	mu      sync.Mutex
	store   map[string]field.Vec
	traffic Traffic
}

// NewHonest creates a well-behaved device.
func NewHonest(id int) Device {
	return &honest{id: id, store: make(map[string]field.Vec)}
}

func (d *honest) ID() int { return d.id }

func (d *honest) LinearForward(key string, kernel LinearKernel, x field.Vec) field.Vec {
	d.mu.Lock()
	// The device stores its own copy, modelling the device-resident tensor
	// left behind by the PCIe transfer. The TEE reuses its coded-input
	// buffers across offloads (arena-backed; see internal/sched), so
	// retaining the caller's slice would alias freely mutated memory. A
	// re-stored key of the same length is overwritten in place: inference
	// re-stores the same keys on every batch, and nothing reads an
	// inference store back.
	s, ok := d.store[key]
	if !ok || len(s) != len(x) {
		s = field.GetScratchVec(len(x))
		d.store[key] = s
	}
	copy(s, x)
	d.traffic.BytesIn += int64(len(x)) * 4
	d.traffic.Jobs++
	d.mu.Unlock()
	y := kernel(x)
	d.mu.Lock()
	d.traffic.BytesOut += int64(len(y)) * 4
	d.mu.Unlock()
	return y
}

func (d *honest) GradWeights(key string, kernel BilinearKernel, delta field.Vec) (field.Vec, error) {
	d.mu.Lock()
	x, ok := d.store[key]
	d.traffic.BytesIn += int64(len(delta)) * 4
	d.traffic.Jobs++
	d.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("gpu %d: %w %q", d.id, ErrNoStored, key)
	}
	y := kernel(delta, x)
	d.mu.Lock()
	d.traffic.BytesOut += int64(len(y)) * 4
	d.mu.Unlock()
	return y, nil
}

// Drop returns the store's buffer to the field scratch pool. A slot runs
// its jobs in order, so a flight drops a store only after every job of the
// flight that reads it.
func (d *honest) Drop(key string) {
	d.mu.Lock()
	if s, ok := d.store[key]; ok {
		delete(d.store, key)
		field.PutScratchVec(s)
	}
	d.mu.Unlock()
}

func (d *honest) Stored() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.store)
}

func (d *honest) Traffic() Traffic {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.traffic
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

func (m *malicious) LinearForward(key string, kernel LinearKernel, x field.Vec) field.Vec {
	y := m.Device.LinearForward(key, kernel, x)
	if m.shouldCorrupt() {
		return corruptVec(y)
	}
	return y
}

func (m *malicious) GradWeights(key string, kernel BilinearKernel, delta field.Vec) (field.Vec, error) {
	y, err := m.Device.GradWeights(key, kernel, delta)
	if err != nil {
		return nil, err
	}
	if m.shouldCorrupt() {
		return corruptVec(y), nil
	}
	return y, nil
}

// slow wraps a device and delays every result by a fixed amount — the
// straggler of distributed-serving folklore: functionally correct, just
// late. The delay is deterministic so straggler experiments reproduce.
type slow struct {
	Device
	delay time.Duration
}

// NewSlow wraps a device so every job takes at least delay longer.
func NewSlow(inner Device, delay time.Duration) Device {
	return &slow{Device: inner, delay: delay}
}

func (s *slow) LinearForward(key string, kernel LinearKernel, x field.Vec) field.Vec {
	y := s.Device.LinearForward(key, kernel, x)
	time.Sleep(s.delay)
	return y
}

func (s *slow) GradWeights(key string, kernel BilinearKernel, delta field.Vec) (field.Vec, error) {
	y, err := s.Device.GradWeights(key, kernel, delta)
	time.Sleep(s.delay)
	return y, err
}

// CollusionPool gathers everything a coalition of devices observed, for the
// privacy experiments: each entry is one coded vector a member received.
type CollusionPool struct {
	mu    sync.Mutex
	views map[string][]ObservedVec // key = logical tensor id
}

// ObservedVec is one coalition member's observation.
type ObservedVec struct {
	DeviceID int
	Data     field.Vec
}

// NewCollusionPool creates an empty pool.
//
//lint:ignore testonly test fixture for the gpu and sched tests
func NewCollusionPool() *CollusionPool {
	return &CollusionPool{views: make(map[string][]ObservedVec)}
}

// Observations returns the coalition's recorded views for a tensor id.
//
//lint:ignore testonly test fixture for the gpu and sched tests
func (p *CollusionPool) Observations(key string) []ObservedVec {
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]ObservedVec(nil), p.views[key]...)
}

// colluding wraps a device, copying every received coded input into the
// shared pool.
type colluding struct {
	Device
	pool *CollusionPool
}

// NewColluding wraps a device so it leaks its inputs to the pool.
//
//lint:ignore testonly test fixture for the gpu and sched tests
func NewColluding(inner Device, pool *CollusionPool) Device {
	return &colluding{Device: inner, pool: pool}
}

func (c *colluding) LinearForward(key string, kernel LinearKernel, x field.Vec) field.Vec {
	c.pool.mu.Lock()
	c.pool.views[key] = append(c.pool.views[key], ObservedVec{DeviceID: c.ID(), Data: x.Clone()})
	c.pool.mu.Unlock()
	return c.Device.LinearForward(key, kernel, x)
}
