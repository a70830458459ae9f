package obs

import (
	"fmt"
	"io"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Span is one timed segment of a request's life, forming a tree: the root
// covers the whole request, children cover admit→seal, the batch dispatch,
// and each offload's encode/dispatch/decode phases.
//
// Every method is a no-op on a nil receiver and Child returns nil from a
// nil parent, so an unsampled (nil) span flows through the entire stack
// at the cost of pointer checks — no allocations, no branches beyond the
// receiver test. Spans are handed between goroutines (client → batcher →
// worker), so mutation is mutex-guarded; the sampled path tolerates that
// cost by construction.
type Span struct {
	tracer *Tracer // non-nil on roots minted by a Tracer
	parent *Span
	name   string
	start  time.Time

	mu       sync.Mutex
	end      time.Time
	attrs    []Attr
	children []*Span
}

// Attr is one key/value annotation on a span.
type Attr struct {
	Key, Value string
}

// Child opens a sub-span under s. Returns nil when s is nil, so disabled
// tracing propagates for free.
func (s *Span) Child(name string) *Span {
	if s == nil {
		return nil
	}
	c := &Span{parent: s, name: name, start: time.Now()}
	s.mu.Lock()
	s.children = append(s.children, c)
	s.mu.Unlock()
	return c
}

// Annotate attaches a key/value pair to the span. No-op on nil.
func (s *Span) Annotate(key, value string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.attrs = append(s.attrs, Attr{Key: key, Value: value})
	s.mu.Unlock()
}

// Annotatef formats an annotation value. No-op on nil (callers that would
// pay to build the arguments should guard with `if s != nil`).
func (s *Span) Annotatef(key, format string, args ...any) {
	if s == nil {
		return
	}
	s.Annotate(key, fmt.Sprintf(format, args...))
}

// End closes the span, first closing any still-open descendants at the
// same instant — error paths may abandon phase children mid-flight, and
// ending the parent keeps the trace well formed. Ending a root minted by
// a Tracer files the completed trace into the tracer's recent ring.
// Idempotent; no-op on nil.
func (s *Span) End() {
	if s == nil {
		return
	}
	if s.endAt(time.Now()) && s.tracer != nil && s.parent == nil {
		s.tracer.complete(s)
	}
}

// endAt stamps the end time (clamped to >= start) on s and every unended
// descendant, reporting whether s was open. Locks are taken parent→child
// only, matching Child's ordering.
func (s *Span) endAt(t time.Time) bool {
	s.mu.Lock()
	if !s.end.IsZero() {
		s.mu.Unlock()
		return false
	}
	if t.Before(s.start) {
		t = s.start
	}
	s.end = t
	children := append([]*Span(nil), s.children...)
	s.mu.Unlock()
	for _, c := range children {
		c.endAt(t)
	}
	return true
}

// Name returns the span's name ("" on nil).
//
//lint:ignore testonly test fixture for the darknight, obs and serve tests
func (s *Span) Name() string {
	if s == nil {
		return ""
	}
	return s.name
}

// Parent returns the span's parent (nil for roots and nil receivers).
//
//lint:ignore testonly test fixture for the obs and serve tests
func (s *Span) Parent() *Span {
	if s == nil {
		return nil
	}
	return s.parent
}

// Ended reports whether End has been called.
//
//lint:ignore testonly test fixture for the obs and serve tests
func (s *Span) Ended() bool {
	if s == nil {
		return false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return !s.end.IsZero()
}

// Duration is end−start for an ended span; for a live span, the time
// elapsed so far.
func (s *Span) Duration() time.Duration {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	end := s.end
	s.mu.Unlock()
	if end.IsZero() {
		return time.Since(s.start)
	}
	return end.Sub(s.start)
}

// Attr returns the value of the first annotation with the given key
// ("" if absent).
//
//lint:ignore testonly test fixture for the darknight, obs and serve tests
func (s *Span) Attr(key string) string {
	if s == nil {
		return ""
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, a := range s.attrs {
		if a.Key == key {
			return a.Value
		}
	}
	return ""
}

// Children returns a copy of the span's direct children.
func (s *Span) Children() []*Span {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]*Span(nil), s.children...)
}

// Find returns the first span named name in a depth-first walk of the
// subtree rooted at s (including s itself), or nil.
func (s *Span) Find(name string) *Span {
	if s == nil {
		return nil
	}
	if s.name == name {
		return s
	}
	for _, c := range s.Children() {
		if m := c.Find(name); m != nil {
			return m
		}
	}
	return nil
}

// FindAll returns every span named name in the subtree, depth-first.
//
//lint:ignore testonly test fixture for the obs and serve tests
func (s *Span) FindAll(name string) []*Span {
	var out []*Span
	s.Walk(func(sp *Span) {
		if sp.name == name {
			out = append(out, sp)
		}
	})
	return out
}

// Walk visits s and every descendant depth-first.
func (s *Span) Walk(fn func(*Span)) {
	if s == nil {
		return
	}
	fn(s)
	for _, c := range s.Children() {
		c.Walk(fn)
	}
}

// Breakdown decomposes the trace's critical path by span name: each
// span's self time (duration minus the time covered by its children,
// clamped at zero) is summed per name. For the serial per-request
// execution this stack produces, the result answers "where did this
// request spend its time" — queueing in admit, sealing, encode, GPU
// flight (dispatch), decode.
func (s *Span) Breakdown() map[string]time.Duration {
	if s == nil {
		return nil
	}
	out := make(map[string]time.Duration)
	s.Walk(func(sp *Span) {
		self := sp.Duration()
		for _, c := range sp.Children() {
			self -= c.Duration()
		}
		if self < 0 {
			self = 0
		}
		out[sp.name] += self
	})
	return out
}

// Render writes the span tree as an indented text dump: name, duration,
// and annotations per line.
func (s *Span) Render(w io.Writer) {
	s.render(w, 0)
}

// RenderString returns Render's output as a string ("" for nil).
//
//lint:ignore testonly test fixture for the darknight and serve tests
func (s *Span) RenderString() string {
	if s == nil {
		return ""
	}
	var b strings.Builder
	s.Render(&b)
	return b.String()
}

func (s *Span) render(w io.Writer, depth int) {
	if s == nil {
		return
	}
	s.mu.Lock()
	attrs := append([]Attr(nil), s.attrs...)
	children := append([]*Span(nil), s.children...)
	s.mu.Unlock()
	fmt.Fprintf(w, "%s%s %s", strings.Repeat("  ", depth), s.name, s.Duration().Round(time.Microsecond))
	for _, a := range attrs {
		fmt.Fprintf(w, " %s=%s", a.Key, a.Value)
	}
	fmt.Fprintln(w)
	for _, c := range children {
		c.render(w, depth+1)
	}
}

// RenderBreakdown writes the per-name self-time decomposition, largest
// share first.
func (s *Span) RenderBreakdown(w io.Writer) {
	if s == nil {
		return
	}
	bd := s.Breakdown()
	names := make([]string, 0, len(bd))
	for n := range bd {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return bd[names[i]] > bd[names[j]] })
	total := s.Duration()
	fmt.Fprintf(w, "critical path (%s total):\n", total.Round(time.Microsecond))
	for _, n := range names {
		pct := 0.0
		if total > 0 {
			pct = 100 * float64(bd[n]) / float64(total)
		}
		fmt.Fprintf(w, "  %-18s %10s  %5.1f%%\n", n, bd[n].Round(time.Microsecond), pct)
	}
}

// Tracer mints sampled root spans and keeps a bounded ring of completed
// traces for dumping. A nil Tracer, or a sampling rate of zero, makes
// Start return nil spans — the disabled path.
type Tracer struct {
	sample float64
	keep   int

	rngMu sync.Mutex
	rng   *rand.Rand

	started   atomic.Int64 // sampling decisions taken
	traced    atomic.Int64 // roots actually sampled
	completed atomic.Int64 // roots ended

	mu     sync.Mutex
	recent []*Span // ring of completed roots, oldest first after rotation
	next   int
	full   bool
}

// NewTracer builds a tracer sampling the given fraction of Start calls
// and retaining the last keep (default 16) completed traces.
func NewTracer(sample float64, keep int, seed int64) *Tracer {
	if keep <= 0 {
		keep = 16
	}
	return &Tracer{
		sample: sample,
		keep:   keep,
		rng:    rand.New(rand.NewSource(seed)),
	}
}

// Start begins a root span, or returns nil when the tracer is nil, the
// rate is zero, or the sampling draw declines.
func (t *Tracer) Start(name string) *Span {
	if t == nil || t.sample <= 0 {
		return nil
	}
	t.started.Add(1)
	if t.sample < 1 {
		t.rngMu.Lock()
		keep := t.rng.Float64() < t.sample
		t.rngMu.Unlock()
		if !keep {
			return nil
		}
	}
	t.traced.Add(1)
	return &Span{tracer: t, name: name, start: time.Now()}
}

// complete files a finished root into the recent ring.
func (t *Tracer) complete(s *Span) {
	t.completed.Add(1)
	t.mu.Lock()
	if len(t.recent) < t.keep {
		t.recent = append(t.recent, s)
	} else {
		t.recent[t.next] = s
		t.next = (t.next + 1) % t.keep
		t.full = true
	}
	t.mu.Unlock()
}

// Recent returns the retained completed traces, oldest first.
func (t *Tracer) Recent() []*Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.full {
		return append([]*Span(nil), t.recent...)
	}
	out := make([]*Span, 0, len(t.recent))
	out = append(out, t.recent[t.next:]...)
	out = append(out, t.recent[:t.next]...)
	return out
}

// Counts reports (sampling decisions, sampled roots, completed roots).
//
//lint:ignore testonly test fixture for the obs and serve tests
func (t *Tracer) Counts() (started, traced, completed int64) {
	if t == nil {
		return 0, 0, 0
	}
	return t.started.Load(), t.traced.Load(), t.completed.Load()
}
