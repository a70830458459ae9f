package resil

import (
	"math"
	"sync/atomic"
)

// ShedPolicy is queue-depth admission control with per-tenant priorities.
// A request is shed — rejected with ErrShed before any work — when its
// tenant's effective queue allowance is already full. High-priority
// tenants keep the full queue; lower priorities are shed progressively
// earlier, so overload degrades bronze traffic before gold.
type ShedPolicy struct {
	// MaxQueue is the admission-queue depth at which priority-1.0 traffic
	// is shed. 0 disables shedding entirely.
	MaxQueue int
	// Priorities maps tenant → share of MaxQueue that tenant may see
	// before being shed, in (0, 1]. Unlisted tenants (and "*" when
	// absent) get 1.0.
	Priorities map[string]float64
}

func (p ShedPolicy) priority(tenant string) float64 {
	if pr, ok := p.Priorities[tenant]; ok && pr > 0 && pr <= 1 {
		return pr
	}
	if pr, ok := p.Priorities["*"]; ok && pr > 0 && pr <= 1 {
		return pr
	}
	return 1
}

// Shedder applies a ShedPolicy, with a runtime tightening factor the
// brownout controller lowers under SLO pressure (1.0 = policy as
// written, 0.5 = every allowance halved). Safe for concurrent use.
type Shedder struct {
	policy ShedPolicy
	// factor holds math.Float64bits of the tightening factor.
	factor atomic.Uint64
}

// NewShedder builds a shedder (nil policy semantics: MaxQueue 0 never
// sheds, but the shedder still accepts brownout tightening — a tightened
// zero stays zero).
func NewShedder(p ShedPolicy) *Shedder {
	s := &Shedder{policy: p}
	s.factor.Store(math.Float64bits(1))
	return s
}

// SetFactor installs the brownout tightening factor in (0, 1].
func (s *Shedder) SetFactor(f float64) {
	if s == nil {
		return
	}
	if f <= 0 || f > 1 {
		f = 1
	}
	s.factor.Store(math.Float64bits(f))
}

// Admit decides one admission: nil, or ErrShed when the tenant's
// allowance is full at the given queue depth. Nil-safe (always admits).
func (s *Shedder) Admit(tenant string, depth int) error {
	if s == nil || s.policy.MaxQueue <= 0 {
		return nil
	}
	f := math.Float64frombits(s.factor.Load())
	allow := int(float64(s.policy.MaxQueue) * s.policy.priority(tenant) * f)
	if allow < 1 {
		allow = 1 // never wedge: one slot always admits
	}
	if depth < allow {
		return nil
	}
	return ErrShed
}
