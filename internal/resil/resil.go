// Package resil is the cross-layer resilience subsystem of the serving
// stack: deadline budgets, retry with capped exponential backoff, hedged
// dispatch governed by a latency-percentile trigger, queue-depth admission
// control with per-tenant priorities, an SLO-driven brownout degradation
// controller, and a scripted deterministic chaos harness.
//
// The package owns the *policies* and their bookkeeping; the serving stack
// (internal/serve) owns the mechanisms they steer — which gang to acquire,
// when to prune a batch, which flight wins. resil deliberately imports only
// gpu (chaos actuators) and obs (events, metrics, breach feed), so serve
// and sched can both build on it without cycles.
package resil

import (
	"context"
	"errors"
	"time"
)

// Typed client-visible errors. A chaos acceptance run counts only these as
// explained outcomes: anything else a client sees is a harness failure.
var (
	// ErrDeadline reports a request whose end-to-end budget expired before
	// (or during) dispatch. It matches errors.Is(err,
	// context.DeadlineExceeded) so callers using plain context idioms keep
	// working.
	ErrDeadline error = deadlineError{}
	// ErrShed reports a request rejected by admission control before any
	// work was done on it. Clients should back off and retry.
	ErrShed = errors.New("resil: request shed by admission control")
	// ErrRetriesExhausted reports a virtual batch that failed on its
	// original gang and on every permitted retry gang.
	ErrRetriesExhausted = errors.New("resil: retries exhausted")
)

type deadlineError struct{}

func (deadlineError) Error() string { return "resil: deadline budget exhausted" }

// Is makes ErrDeadline satisfy errors.Is(err, context.DeadlineExceeded):
// a budget expiry IS a deadline expiry, just attributed to a phase.
func (deadlineError) Is(target error) bool { return target == context.DeadlineExceeded }

// Config bundles the resilience policies of one server. The zero value
// disables everything and the serving hot path stays at its PR8 cost.
type Config struct {
	Budget   BudgetPolicy
	Retry    RetryPolicy
	Hedge    HedgePolicy
	Shed     ShedPolicy
	Brownout BrownoutPolicy
}

// BudgetPolicy splits a request's end-to-end deadline budget across the
// serving phases: admission + batching may spend at most BatchFraction of
// the budget; the remainder is reserved for gang acquisition, offload and
// decode. The offload layer re-checks the absolute deadline before every
// gang dispatch.
type BudgetPolicy struct {
	// Default is the end-to-end budget applied to requests whose context
	// carries no deadline. 0 leaves such requests unbounded (PR8
	// behavior); a caller deadline always takes precedence when earlier.
	Default time.Duration
	// BatchFraction is the share of the budget a request may spend waiting
	// in the batcher before it must be flushed (padded if necessary).
	// 0 picks DefaultBatchFraction. The rest of the budget covers the
	// dispatch pipeline — so a request is never flushed so late that the
	// offload cannot finish inside its deadline.
	BatchFraction float64
}

// DefaultBatchFraction is the batching share of a deadline budget: half
// the budget may be spent coalescing, half is reserved for the offload.
const DefaultBatchFraction = 0.5

// Enabled reports whether the budget policy changes anything: a default
// budget or an explicit phase split.
func (p BudgetPolicy) Enabled() bool { return p.Default > 0 || p.BatchFraction > 0 }

// batchFraction returns the effective batching share.
func (p BudgetPolicy) batchFraction() float64 {
	if p.BatchFraction <= 0 || p.BatchFraction > 1 {
		return DefaultBatchFraction
	}
	return p.BatchFraction
}

// Deadline resolves a request's absolute end-to-end deadline from its
// context deadline (ok=false when absent) and the policy default. The
// zero time means unbounded.
func (p BudgetPolicy) Deadline(now time.Time, ctxDeadline time.Time, ok bool) time.Time {
	var d time.Time
	if p.Default > 0 {
		d = now.Add(p.Default)
	}
	if ok && (d.IsZero() || ctxDeadline.Before(d)) {
		d = ctxDeadline
	}
	return d
}

// FlushBy bounds how long a request admitted at now with absolute
// deadline d (zero = unbounded) may wait in the batcher: the earlier of
// maxWait and the batch-phase share of the remaining budget.
func (p BudgetPolicy) FlushBy(now time.Time, d time.Time, maxWait time.Duration) time.Time {
	flushBy := now.Add(maxWait)
	if d.IsZero() {
		return flushBy
	}
	budget := d.Sub(now)
	if budget <= 0 {
		return now // already expired: flush (and fail) immediately
	}
	if cut := now.Add(time.Duration(float64(budget) * p.batchFraction())); cut.Before(flushBy) {
		flushBy = cut
	}
	return flushBy
}

// RetryPolicy caps re-dispatch of failed virtual batches onto fresh gangs.
type RetryPolicy struct {
	// Max is the number of re-dispatch attempts after the original (0
	// disables retry).
	Max int
	// Base is the first backoff (default 500µs); each further attempt
	// doubles it, capped at Cap (default 8ms). The quarantine machinery
	// removes attributed culprits from the pool meanwhile, which is what
	// makes the fresh gang actually fresh.
	Base time.Duration
	// Cap bounds the exponential growth.
	Cap time.Duration
}

// Backoff returns the pause before re-dispatch attempt (1-based).
func (p RetryPolicy) Backoff(attempt int) time.Duration {
	base := p.Base
	if base <= 0 {
		base = 500 * time.Microsecond
	}
	cap := p.Cap
	if cap <= 0 {
		cap = 8 * time.Millisecond
	}
	d := base
	for i := 1; i < attempt; i++ {
		d *= 2
		if d >= cap {
			return cap
		}
	}
	if d > cap {
		return cap
	}
	return d
}

// Retryable reports whether a batch failure is worth a fresh gang:
// integrity rejections and transient dispatch errors are; typed resil
// outcomes (deadline, shed) and context cancellation are not — the budget
// is gone either way.
func Retryable(err error) bool {
	if err == nil {
		return false
	}
	if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) ||
		errors.Is(err, ErrShed) || errors.Is(err, ErrRetriesExhausted) {
		return false
	}
	return true
}
