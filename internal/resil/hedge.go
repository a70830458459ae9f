package resil

import (
	"sort"
	"sync"
	"time"
)

// HedgePolicy triggers a speculative duplicate flight for a slow virtual
// batch: when the primary gang has not answered within the observed
// latency percentile, the batch is re-encoded and dispatched on a second
// gang, and the first bit-identical answer wins. Hedges only ever use
// spare capacity (non-blocking acquisition) so they cannot starve primary
// traffic.
type HedgePolicy struct {
	// Enabled turns hedging on.
	Enabled bool
	// Quantile is the batch-latency percentile that arms the hedge timer
	// (default 0.95): a batch slower than this is presumed straggling.
	Quantile float64
}

func (p HedgePolicy) quantile() float64 {
	if p.Quantile <= 0 || p.Quantile >= 1 {
		return 0.95
	}
	return p.Quantile
}

// The hedge governor's sampling.
const (
	// hedgeMin floors the trigger delay so cold starts and tiny samples
	// cannot hedge everything.
	hedgeMin = 250 * time.Microsecond
	// hedgeWarmup is the number of completed batches observed before
	// hedging engages — percentiles over fewer samples are noise.
	hedgeWarmup = 16
	// hedgeWindow bounds the latency reservoir to the most recent batches.
	hedgeWindow = 512
)

// HedgeGovernor tracks recent batch dispatch latencies and answers "how
// long should a primary flight run before we hedge it?". Safe for
// concurrent use by all workers; one governor per server so every worker
// benefits from fleet-wide observations.
type HedgeGovernor struct {
	policy HedgePolicy

	mu   sync.Mutex
	ring []time.Duration
	pos  int
	n    int64 // total observations (monotone)

	// cached is the last computed trigger; recomputing the ring quantile
	// (copy + sort of up to hedgeWindow samples) on every dispatch would tax
	// the clean path, so Delay refreshes it at most once per
	// recomputeEvery observations.
	cached   time.Duration
	cachedAt int64

	// disabled is flipped by the brownout controller: under degradation
	// the duplicate flights are the first capacity to give back.
	disabled bool
}

// NewHedgeGovernor builds a governor for the policy.
func NewHedgeGovernor(p HedgePolicy) *HedgeGovernor {
	return &HedgeGovernor{policy: p, ring: make([]time.Duration, 0, hedgeWindow)}
}

// Observe records one completed primary dispatch latency.
func (g *HedgeGovernor) Observe(d time.Duration) {
	if g == nil {
		return
	}
	g.mu.Lock()
	if len(g.ring) < hedgeWindow {
		g.ring = append(g.ring, d)
	} else {
		g.ring[g.pos] = d
		g.pos = (g.pos + 1) % len(g.ring)
	}
	g.n++
	g.mu.Unlock()
}

// SetDisabled lets the brownout controller suspend hedging without
// touching the policy.
func (g *HedgeGovernor) SetDisabled(off bool) {
	if g == nil {
		return
	}
	g.mu.Lock()
	g.disabled = off
	g.mu.Unlock()
}

// Delay returns the hedge trigger: how long to let the primary flight run
// before launching the duplicate. ok=false while hedging is disabled,
// unwarmed, or the policy is off — the caller then never hedges.
func (g *HedgeGovernor) Delay() (time.Duration, bool) {
	if g == nil || !g.policy.Enabled {
		return 0, false
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.disabled || g.n < hedgeWarmup {
		return 0, false
	}
	if g.cachedAt == 0 || g.n-g.cachedAt >= recomputeEvery {
		sorted := append([]time.Duration(nil), g.ring...)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
		idx := int(float64(len(sorted)) * g.policy.quantile())
		if idx >= len(sorted) {
			idx = len(sorted) - 1
		}
		g.cached, g.cachedAt = max(sorted[idx], hedgeMin), g.n
	}
	return g.cached, true
}

// recomputeEvery is how many new observations invalidate the cached
// trigger. Small enough to track latency regime changes within a couple
// dozen batches, large enough to amortize the ring sort to noise.
const recomputeEvery = 16
