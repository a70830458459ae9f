package resil

import (
	"sync/atomic"

	"darknight/internal/obs"
)

// Counters is the resilience layer's shared accounting, exported as the
// darknight_resil_* metric families. All fields are atomics; one Counters
// per server is shared by the admission path, the workers, the brownout
// controller and the chaos runner.
type Counters struct {
	// Deadline counts requests failed on an expired end-to-end budget
	// (typed ErrDeadline) before or instead of dispatch.
	Deadline atomic.Int64
	// Shed counts requests rejected by admission control (typed ErrShed).
	Shed atomic.Int64
	// Retries counts re-dispatches of failed virtual batches onto fresh
	// gangs; RetrySuccess the retries that then completed cleanly;
	// RetriesExhausted the batches that failed every permitted attempt.
	Retries          atomic.Int64
	RetrySuccess     atomic.Int64
	RetriesExhausted atomic.Int64
	// Hedges counts speculative duplicate flights launched; HedgeWins the
	// hedges that answered before the primary; HedgeLosses the hedges the
	// primary beat (their grants still released cleanly); HedgeMismatch
	// cross-verification failures — both flights completed but disagreed
	// (counted, surfaced as an integrity-class failure, never served).
	Hedges        atomic.Int64
	HedgeWins     atomic.Int64
	HedgeLosses   atomic.Int64
	HedgeMismatch atomic.Int64
	// BrownoutShifts counts level transitions (the level itself lives in
	// the Brownout controller, under the lock that changes it).
	BrownoutShifts atomic.Int64
	// ChaosActions counts scripted fault-schedule actions applied.
	ChaosActions atomic.Int64
}

// Snapshot is a consistent-enough copy of the counters (each field is
// read atomically; the set is not a single linearization point, which is
// fine for monitoring).
type Snapshot struct {
	Deadline         int64
	Shed             int64
	Retries          int64
	RetrySuccess     int64
	RetriesExhausted int64
	Hedges           int64
	HedgeWins        int64
	HedgeLosses      int64
	HedgeMismatch    int64
	BrownoutShifts   int64
	// BrownoutLevel is the controller's current level, filled by the
	// server from Brownout.Level — Counters keeps no copy of it.
	BrownoutLevel int64
	ChaosActions  int64
}

// Snapshot reads every counter. Nil-safe (zero snapshot).
func (c *Counters) Snapshot() Snapshot {
	if c == nil {
		return Snapshot{}
	}
	return Snapshot{
		Deadline:         c.Deadline.Load(),
		Shed:             c.Shed.Load(),
		Retries:          c.Retries.Load(),
		RetrySuccess:     c.RetrySuccess.Load(),
		RetriesExhausted: c.RetriesExhausted.Load(),
		Hedges:           c.Hedges.Load(),
		HedgeWins:        c.HedgeWins.Load(),
		HedgeLosses:      c.HedgeLosses.Load(),
		HedgeMismatch:    c.HedgeMismatch.Load(),
		BrownoutShifts:   c.BrownoutShifts.Load(),
		ChaosActions:     c.ChaosActions.Load(),
	}
}

// Register exports the darknight_resil_* families on a registry.
// Nil-safe on both sides.
func (c *Counters) Register(r *obs.Registry) {
	if c == nil || r == nil {
		return
	}
	counter := func(name, help string, v *atomic.Int64) {
		r.CounterFunc(name, help, func() float64 { return float64(v.Load()) })
	}
	counter("darknight_resil_deadline_total",
		"Requests failed on an expired end-to-end deadline budget.", &c.Deadline)
	counter("darknight_resil_shed_total",
		"Requests rejected by admission control.", &c.Shed)
	counter("darknight_resil_retries_total",
		"Failed virtual batches re-dispatched onto fresh gangs.", &c.Retries)
	counter("darknight_resil_retry_success_total",
		"Re-dispatched batches that then completed cleanly.", &c.RetrySuccess)
	counter("darknight_resil_retries_exhausted_total",
		"Batches that failed the original dispatch and every permitted retry.", &c.RetriesExhausted)
	counter("darknight_resil_hedges_total",
		"Speculative duplicate flights launched for slow primaries.", &c.Hedges)
	counter("darknight_resil_hedge_wins_total",
		"Hedged flights that answered before their primary.", &c.HedgeWins)
	counter("darknight_resil_hedge_losses_total",
		"Hedged flights the primary beat (cancelled cleanly).", &c.HedgeLosses)
	counter("darknight_resil_hedge_mismatch_total",
		"Hedge cross-verification failures: primary and hedge disagreed.", &c.HedgeMismatch)
	counter("darknight_resil_brownout_shifts_total",
		"Brownout controller level transitions (either direction).", &c.BrownoutShifts)
	counter("darknight_resil_chaos_actions_total",
		"Scripted chaos-schedule actions applied to the fleet.", &c.ChaosActions)
}
