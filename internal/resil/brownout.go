package resil

import (
	"fmt"
	"sync"

	"darknight/internal/obs"
)

// BrownoutPolicy configures the degradation controller. The controller
// consumes SLO breach events (obs.SLOTracker.OnBreach) and maps the set of
// currently-burning objectives to a degradation level:
//
//	level = min(maxBrownout, number of distinct breached tenant/window/SLO keys)
//
// Rising breaches escalate, clearing breaches de-escalate, and level 0 is
// full service — edge-triggered both ways, no polling. What each level
// *does* is owned by the serving layer, which subscribes via OnChange and
// actuates its runtime knobs (shorter flush windows → smaller effective
// batches, shallower pipelines, hedging off, tighter shedding). The coded
// geometry (structural K, M, E) is fixed at construction — degradation
// trades latency/padding headroom, never the privacy/integrity operating
// point.
type BrownoutPolicy struct {
	// Enabled turns the controller on.
	Enabled bool
}

// maxBrownout caps the degradation depth.
const maxBrownout = 3

// Brownout is the degradation controller. Safe for concurrent use; breach
// callbacks arrive on serving goroutines.
type Brownout struct {
	policy BrownoutPolicy
	rec    *obs.FlightRecorder
	c      *Counters

	mu       sync.Mutex
	burning  map[string]bool
	level    int
	onChange []func(level int)
}

// NewBrownout builds a controller recording transitions into rec (may be
// nil) and counting them in c (may be nil).
func NewBrownout(p BrownoutPolicy, rec *obs.FlightRecorder, c *Counters) *Brownout {
	return &Brownout{policy: p, rec: rec, c: c, burning: make(map[string]bool)}
}

// OnChange subscribes an actuator callback, fired (outside the controller
// lock) on every level transition with the new level. Subscribe before
// traffic starts.
func (b *Brownout) OnChange(fn func(level int)) {
	if b == nil || fn == nil {
		return
	}
	b.mu.Lock()
	b.onChange = append(b.onChange, fn)
	b.mu.Unlock()
}

// Level returns the current degradation level (0 = full service).
func (b *Brownout) Level() int {
	if b == nil {
		return 0
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.level
}

// Register exports the level as darknight_resil_brownout_level, read from
// the controller at scrape time. Nil-safe on both sides: a server without
// the controller exports a constant 0.
func (b *Brownout) Register(r *obs.Registry) {
	r.GaugeFunc("darknight_resil_brownout_level",
		"Current brownout degradation level (0 = full service).",
		func() float64 { return float64(b.Level()) })
}

// Subscribe wires the controller into an SLO tracker's breach feed.
func (b *Brownout) Subscribe(t *obs.SLOTracker) {
	if b == nil || !b.policy.Enabled || t == nil {
		return
	}
	t.OnBreach(b.observe)
}

// observe folds one breach event into the burning set and re-derives the
// level.
func (b *Brownout) observe(br obs.Breach) {
	key := fmt.Sprintf("%s|%s|%s", br.Tenant, br.Window, br.SLO)
	b.mu.Lock()
	if br.Cleared {
		delete(b.burning, key)
	} else {
		b.burning[key] = true
	}
	level := min(len(b.burning), maxBrownout)
	old := b.level
	var hooks []func(int)
	if level != old {
		b.level = level
		hooks = append(hooks, b.onChange...)
	}
	b.mu.Unlock()
	if level == old {
		return
	}
	if b.c != nil {
		b.c.BrownoutShifts.Add(1)
	}
	if b.rec != nil {
		verb := "degraded"
		if level < old {
			verb = "restored"
		}
		b.rec.Record(obs.Event{Kind: obs.KindBrownout, Subsystem: "resil",
			Device: -1, Slot: -1, Tenant: br.Tenant,
			Detail: fmt.Sprintf("%s: level %d -> %d (%d objectives burning; trigger %s %s over %s, burn %.2f)",
				verb, old, level, len(b.burning), br.Tenant, br.SLO, br.Window, br.Burn)})
	}
	for _, fn := range hooks {
		fn(level)
	}
}
