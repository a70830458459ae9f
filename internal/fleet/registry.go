package fleet

import (
	"fmt"
	"hash/fnv"
	"sync"
)

// Registry is the device identity service: every admission of a physical
// device into the grantable pool — including each probation re-admission —
// gets a fingerprint hashed from (device ID, admission generation), in the
// spirit of hash-lookup registries for service identity. Health history is
// keyed by fingerprint, so a re-admitted device starts a traceably fresh
// record while the event log still ties generations of the same physical
// device together.
type Registry struct {
	mu   sync.Mutex
	byFP map[uint64]Identity
	seq  int64
}

// Identity is one registered device admission.
type Identity struct {
	DeviceID    int
	Generation  int
	Fingerprint uint64
	// Seq is the registration sequence number (monotonic across the
	// registry's lifetime).
	Seq int64
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{byFP: make(map[uint64]Identity)}
}

// Fingerprint hashes a (device, generation) admission to its identity key.
func Fingerprint(deviceID, gen int) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "dev:%d/gen:%d", deviceID, gen)
	return h.Sum64()
}

// Register records an admission and returns its fingerprint.
func (r *Registry) Register(deviceID, gen int) uint64 {
	fp := Fingerprint(deviceID, gen)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.seq++
	r.byFP[fp] = Identity{DeviceID: deviceID, Generation: gen, Fingerprint: fp, Seq: r.seq}
	return fp
}
