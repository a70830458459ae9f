package resil

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"darknight/internal/obs"
)

func TestBackoffDoublesAndCaps(t *testing.T) {
	p := RetryPolicy{Max: 5} // defaults: base 500µs, cap 8ms
	want := []time.Duration{
		500 * time.Microsecond,
		1 * time.Millisecond,
		2 * time.Millisecond,
		4 * time.Millisecond,
		8 * time.Millisecond,
		8 * time.Millisecond, // capped
	}
	for i, w := range want {
		if got := p.Backoff(i + 1); got != w {
			t.Errorf("Backoff(%d) = %v, want %v", i+1, got, w)
		}
	}
	custom := RetryPolicy{Base: time.Millisecond, Cap: 3 * time.Millisecond}
	if got := custom.Backoff(1); got != time.Millisecond {
		t.Errorf("custom Backoff(1) = %v", got)
	}
	if got := custom.Backoff(3); got != 3*time.Millisecond {
		t.Errorf("custom Backoff(3) = %v, want cap 3ms", got)
	}
	// Base above cap clamps to cap from the first attempt.
	weird := RetryPolicy{Base: 10 * time.Millisecond, Cap: 2 * time.Millisecond}
	if got := weird.Backoff(1); got != 2*time.Millisecond {
		t.Errorf("base>cap Backoff(1) = %v, want 2ms", got)
	}
}

func TestBudgetDeadlineResolution(t *testing.T) {
	now := time.Unix(1000, 0)
	var p BudgetPolicy
	if d := p.Deadline(now, time.Time{}, false); !d.IsZero() {
		t.Errorf("no policy, no ctx: want zero deadline, got %v", d)
	}
	p = BudgetPolicy{Default: 100 * time.Millisecond}
	if d := p.Deadline(now, time.Time{}, false); !d.Equal(now.Add(100 * time.Millisecond)) {
		t.Errorf("default-only deadline = %v", d)
	}
	// Earlier caller deadline wins over the default.
	early := now.Add(10 * time.Millisecond)
	if d := p.Deadline(now, early, true); !d.Equal(early) {
		t.Errorf("earlier ctx deadline should win, got %v", d)
	}
	// Later caller deadline does not loosen the default budget.
	late := now.Add(10 * time.Second)
	if d := p.Deadline(now, late, true); !d.Equal(now.Add(100 * time.Millisecond)) {
		t.Errorf("later ctx deadline should not loosen default, got %v", d)
	}
	// Caller deadline with no default applies as-is.
	if d := (BudgetPolicy{}).Deadline(now, early, true); !d.Equal(early) {
		t.Errorf("ctx-only deadline = %v", d)
	}
}

func TestBudgetFlushBySplit(t *testing.T) {
	now := time.Unix(1000, 0)
	maxWait := 50 * time.Millisecond
	p := BudgetPolicy{Default: 100 * time.Millisecond} // batch share = default 0.5

	// Unbounded request: flushBy is just now+maxWait.
	if got := p.FlushBy(now, time.Time{}, maxWait); !got.Equal(now.Add(maxWait)) {
		t.Errorf("unbounded FlushBy = %v", got)
	}
	// 100ms budget, 0.5 fraction → batch phase may take 50ms; not earlier
	// than maxWait here, so they coincide.
	d := now.Add(100 * time.Millisecond)
	if got := p.FlushBy(now, d, maxWait); !got.Equal(now.Add(50 * time.Millisecond)) {
		t.Errorf("split FlushBy = %v, want now+50ms", got)
	}
	// Tight budget: 20ms budget → 10ms batch share, earlier than maxWait.
	d = now.Add(20 * time.Millisecond)
	if got := p.FlushBy(now, d, maxWait); !got.Equal(now.Add(10 * time.Millisecond)) {
		t.Errorf("tight FlushBy = %v, want now+10ms", got)
	}
	// Custom fraction.
	p2 := BudgetPolicy{BatchFraction: 0.25}
	d = now.Add(40 * time.Millisecond)
	if got := p2.FlushBy(now, d, maxWait); !got.Equal(now.Add(10 * time.Millisecond)) {
		t.Errorf("quarter-fraction FlushBy = %v, want now+10ms", got)
	}
	// Already expired: flush immediately.
	if got := p.FlushBy(now, now.Add(-time.Millisecond), maxWait); !got.Equal(now) {
		t.Errorf("expired FlushBy = %v, want now", got)
	}
}

func TestErrDeadlineMatchesContext(t *testing.T) {
	if !errors.Is(ErrDeadline, context.DeadlineExceeded) {
		t.Fatal("ErrDeadline must match context.DeadlineExceeded")
	}
	wrapped := fmt.Errorf("request: %w", ErrDeadline)
	if !errors.Is(wrapped, context.DeadlineExceeded) {
		t.Fatal("wrapped ErrDeadline must still match context.DeadlineExceeded")
	}
}

func TestRetryableClassification(t *testing.T) {
	cases := []struct {
		err  error
		want bool
	}{
		{nil, false},
		{context.DeadlineExceeded, false},
		{context.Canceled, false},
		{ErrDeadline, false},
		{ErrShed, false},
		{ErrRetriesExhausted, false},
		{fmt.Errorf("wrap: %w", ErrRetriesExhausted), false},
		{errors.New("integrity: tampering detected"), true},
		{fmt.Errorf("dispatch: %w", errors.New("transient")), true},
	}
	for _, c := range cases {
		if got := Retryable(c.err); got != c.want {
			t.Errorf("Retryable(%v) = %v, want %v", c.err, got, c.want)
		}
	}
}

func TestShedderPrioritiesAndFactor(t *testing.T) {
	// Disabled policy admits everything at any depth.
	off := NewShedder(ShedPolicy{})
	if err := off.Admit("t", 1<<20); err != nil {
		t.Fatalf("disabled shedder rejected: %v", err)
	}
	var nilShed *Shedder
	if err := nilShed.Admit("t", 1<<20); err != nil {
		t.Fatalf("nil shedder rejected: %v", err)
	}

	s := NewShedder(ShedPolicy{
		MaxQueue:   10,
		Priorities: map[string]float64{"bronze": 0.3, "*": 0.6},
	})
	// Gold (unlisted, but "*" present): allowance 6.
	if err := s.Admit("gold", 5); err != nil {
		t.Errorf("gold at depth 5 shed: %v", err)
	}
	if err := s.Admit("gold", 6); !errors.Is(err, ErrShed) {
		t.Errorf("gold at depth 6 admitted, want ErrShed (got %v)", err)
	}
	// Bronze: allowance 3.
	if err := s.Admit("bronze", 2); err != nil {
		t.Errorf("bronze at depth 2 shed: %v", err)
	}
	if err := s.Admit("bronze", 3); !errors.Is(err, ErrShed) {
		t.Errorf("bronze at depth 3 admitted, want ErrShed (got %v)", err)
	}

	// Without "*", unlisted tenants get the full queue.
	full := NewShedder(ShedPolicy{MaxQueue: 10, Priorities: map[string]float64{"bronze": 0.3}})
	if err := full.Admit("gold", 9); err != nil {
		t.Errorf("full-priority tenant at depth 9 shed: %v", err)
	}

	// Brownout tightening halves every allowance.
	s.SetFactor(0.5)
	if err := s.Admit("gold", 3); !errors.Is(err, ErrShed) {
		t.Errorf("tightened gold at depth 3 admitted, want ErrShed (got %v)", err)
	}
	// Floor: even heavily tightened low-priority tenants keep one slot.
	s.SetFactor(0.01)
	if err := s.Admit("bronze", 0); err != nil {
		t.Errorf("floor violated: bronze at empty queue shed: %v", err)
	}
	// Restoring the factor restores the policy as written.
	s.SetFactor(1)
	if err := s.Admit("gold", 5); err != nil {
		t.Errorf("restored gold at depth 5 shed: %v", err)
	}
}

func TestHedgeGovernorWarmupQuantileFloor(t *testing.T) {
	// Policy off: never hedge.
	var nilG *HedgeGovernor
	if _, ok := nilG.Delay(); ok {
		t.Fatal("nil governor offered a hedge delay")
	}
	off := NewHedgeGovernor(HedgePolicy{})
	if _, ok := off.Delay(); ok {
		t.Fatal("disabled policy offered a hedge delay")
	}

	g := NewHedgeGovernor(HedgePolicy{
		Enabled: true, Quantile: 0.9, Min: time.Millisecond, Warmup: 4, Window: 8,
	})
	// Unwarmed: no hedging.
	g.Observe(10 * time.Millisecond)
	if _, ok := g.Delay(); ok {
		t.Fatal("governor hedged before warmup")
	}
	for _, d := range []time.Duration{10, 20, 30, 40, 50, 60, 70} {
		g.Observe(d * time.Millisecond)
	}
	d, ok := g.Delay()
	if !ok {
		t.Fatal("warmed governor refused to hedge")
	}
	// Ring holds {10,10,20,...,70}ms; p90 over 8 samples indexes the top.
	if d < 50*time.Millisecond || d > 70*time.Millisecond {
		t.Errorf("p90 delay = %v, want in [50ms, 70ms]", d)
	}

	// Min floor: all-fast observations still wait at least Min.
	fast := NewHedgeGovernor(HedgePolicy{Enabled: true, Min: time.Millisecond, Warmup: 2, Window: 8})
	fast.Observe(time.Microsecond)
	fast.Observe(time.Microsecond)
	if d, ok := fast.Delay(); !ok || d != time.Millisecond {
		t.Errorf("min floor: got (%v, %v), want (1ms, true)", d, ok)
	}

	// Brownout disable suspends, re-enable resumes.
	g.SetDisabled(true)
	if _, ok := g.Delay(); ok {
		t.Fatal("disabled governor offered a hedge delay")
	}
	g.SetDisabled(false)
	if _, ok := g.Delay(); !ok {
		t.Fatal("re-enabled governor refused to hedge")
	}
}

func breach(tenant string, win time.Duration, slo string, cleared bool) obs.Breach {
	return obs.Breach{Tenant: tenant, Window: win, SLO: slo, Burn: 2.5, Cleared: cleared}
}

func TestBrownoutLevelTransitions(t *testing.T) {
	rec := obs.NewFlightRecorder(64)
	var c Counters
	b := NewBrownout(BrownoutPolicy{Enabled: true, MaxLevel: 2}, rec, &c)

	var levels []int
	b.OnChange(func(l int) { levels = append(levels, l) })

	if b.Level() != 0 {
		t.Fatalf("initial level = %d", b.Level())
	}
	// One burning objective → level 1.
	b.observe(breach("a", time.Second, "latency", false))
	if b.Level() != 1 {
		t.Fatalf("after 1 breach: level = %d, want 1", b.Level())
	}
	// Same key again: edge-triggered, no new transition.
	b.observe(breach("a", time.Second, "latency", false))
	if got := c.BrownoutShifts.Load(); got != 1 {
		t.Fatalf("duplicate breach caused a transition: shifts = %d", got)
	}
	// Distinct keys escalate; MaxLevel caps at 2.
	b.observe(breach("a", 10*time.Second, "latency", false))
	b.observe(breach("b", time.Second, "errors", false))
	if b.Level() != 2 {
		t.Fatalf("level = %d, want capped at 2", b.Level())
	}
	// Clearing back down de-escalates stepwise to 0.
	b.observe(breach("a", time.Second, "latency", true))
	b.observe(breach("a", 10*time.Second, "latency", true))
	if b.Level() != 1 {
		t.Fatalf("after partial clear: level = %d, want 1", b.Level())
	}
	b.observe(breach("b", time.Second, "errors", true))
	if b.Level() != 0 {
		t.Fatalf("after full clear: level = %d, want 0", b.Level())
	}

	want := []int{1, 2, 1, 0}
	if len(levels) != len(want) {
		t.Fatalf("OnChange fired %d times (%v), want %v", len(levels), levels, want)
	}
	for i, w := range want {
		if levels[i] != w {
			t.Fatalf("OnChange sequence = %v, want %v", levels, want)
		}
	}
	if got := c.BrownoutShifts.Load(); got != 4 {
		t.Errorf("shifts = %d, want 4", got)
	}

	// Flight recorder saw both directions.
	var degraded, restored bool
	for _, ev := range rec.Dump() {
		if ev.Kind != obs.KindBrownout {
			continue
		}
		if len(ev.Detail) >= 8 && ev.Detail[:8] == "degraded" {
			degraded = true
		}
		if len(ev.Detail) >= 8 && ev.Detail[:8] == "restored" {
			restored = true
		}
	}
	if !degraded || !restored {
		t.Errorf("flight recorder missing transitions: degraded=%v restored=%v", degraded, restored)
	}
}

func TestBrownoutSubscribeDrivenBySLOTracker(t *testing.T) {
	clock := time.Unix(0, 0)
	tr := obs.NewSLOTracker(obs.SLOConfig{
		Objectives: []obs.SLOObjective{{
			Tenant: "*", LatencyTarget: time.Millisecond, LatencyGoal: 0.99, ErrorBudget: 0.01,
		}},
		Windows: []time.Duration{time.Second},
		Now:     func() time.Time { return clock },
	})
	b := NewBrownout(BrownoutPolicy{Enabled: true}, nil, nil)
	b.Subscribe(tr)

	// A burst of slow requests burns the latency budget → breach → level up.
	for i := 0; i < 50; i++ {
		clock = clock.Add(time.Millisecond)
		tr.Observe("t", 10*time.Millisecond, false)
	}
	if b.Level() == 0 {
		t.Fatal("sustained slow traffic did not raise the brownout level")
	}
	// A long clean tail lets the burn fall and the level restore.
	for i := 0; i < 2000; i++ {
		clock = clock.Add(time.Millisecond)
		tr.Observe("t", 10*time.Microsecond, false)
	}
	if b.Level() != 0 {
		t.Fatalf("clean traffic did not restore: level = %d", b.Level())
	}
}

func TestCountersSnapshotAndConfigEnabled(t *testing.T) {
	var c *Counters
	if s := c.Snapshot(); s != (Snapshot{}) {
		t.Errorf("nil counters snapshot = %+v", s)
	}
	var real Counters
	real.Retries.Add(3)
	real.Hedges.Add(2)
	s := real.Snapshot()
	if s.Retries != 3 || s.Hedges != 2 {
		t.Errorf("snapshot = %+v", s)
	}

	if (Config{}).Enabled() {
		t.Error("zero Config reports enabled")
	}
	for _, c := range []Config{
		{Budget: BudgetPolicy{Default: time.Second}},
		{Retry: RetryPolicy{Max: 1}},
		{Hedge: HedgePolicy{Enabled: true}},
		{Shed: ShedPolicy{MaxQueue: 4}},
		{Brownout: BrownoutPolicy{Enabled: true}},
	} {
		if !c.Enabled() {
			t.Errorf("Config %+v reports disabled", c)
		}
	}
}

// Enabled reports whether any policy is active.
func (c Config) Enabled() bool {
	return c.Budget.Default > 0 || c.Retry.Max > 0 || c.Hedge.Enabled ||
		c.Shed.MaxQueue > 0 || c.Brownout.Enabled
}
