package benchkit

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Span is one interval the harness recorded around a call into the program.
// Times are nanoseconds since the recorder was created. Parent is the ID of
// the span that caused it (0 = root); spans of one request share Req.
type Span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Req    int64  `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// maxSpans bounds the recorder's memory: a traced slice of the fastest
// workload records ~25k spans, so the cap is never reached by the six
// workloads; a longer window drops spans and counts them.
const maxSpans = 1 << 20

// Recorder keeps the harness's spans in memory until the run ends. It is the
// benchmark's own tracer: the program under test is not instrumented by it.
// Recording is switched per slice, so one traced run holds traced and
// untraced slices side by side. A nil Recorder records nothing.
type Recorder struct {
	t0      time.Time
	on      atomic.Bool
	nextID  atomic.Int64
	mu      sync.Mutex
	spans   []Span
	dropped int64
}

// NewRecorder returns a recorder whose clock starts now, switched off.
func NewRecorder() *Recorder { return &Recorder{t0: time.Now()} }

// Enable switches recording on or off.
func (r *Recorder) Enable(on bool) {
	if r != nil {
		r.on.Store(on)
	}
}

// Enabled reports whether spans are currently recorded.
func (r *Recorder) Enabled() bool { return r != nil && r.on.Load() }

// NewID reserves a span ID, so a parent's ID can be handed to its children
// before the parent has ended. 0 when recording is off.
func (r *Recorder) NewID() int64 {
	if !r.Enabled() {
		return 0
	}
	return r.nextID.Add(1)
}

// Add records one finished span under a reserved ID (0 = not recording).
func (r *Recorder) Add(id, parent, req int64, name string, start, end time.Time) {
	if r == nil || id == 0 {
		return
	}
	r.mu.Lock()
	if len(r.spans) < maxSpans {
		r.spans = append(r.spans, Span{ID: id, Parent: parent, Req: req, Name: name,
			Start: start.Sub(r.t0).Nanoseconds(), End: end.Sub(r.t0).Nanoseconds()})
	} else {
		r.dropped++
	}
	r.mu.Unlock()
}

// Spans returns the recorded spans and how many were dropped at the cap.
func (r *Recorder) Spans() ([]Span, int64) {
	if r == nil {
		return nil, 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Span(nil), r.spans...), r.dropped
}

// SelfTime is the per-name roll-up of a span set.
type SelfTime struct {
	Name  string `json:"name"`
	Count int64  `json:"count"`
	// TotalNs sums the spans' durations; SelfNs sums each span's duration
	// minus the part of its interval its child spans cover.
	TotalNs int64 `json:"total_ns"`
	SelfNs  int64 `json:"self_ns"`
}

// SelfTimes rolls spans up by name, ordered by self time, largest first. A
// span's self time is its duration minus the union of its children's
// intervals clipped to its own — overlapping children are not counted twice,
// and a child that outlives its parent only covers the shared part.
func SelfTimes(spans []Span) []SelfTime {
	children := make(map[int64][]Span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	byName := make(map[string]*SelfTime)
	for _, s := range spans {
		st := byName[s.Name]
		if st == nil {
			st = &SelfTime{Name: s.Name}
			byName[s.Name] = st
		}
		dur := s.End - s.Start
		st.Count++
		st.TotalNs += dur
		st.SelfNs += dur - covered(s, children[s.ID])
	}
	out := make([]SelfTime, 0, len(byName))
	for _, st := range byName {
		out = append(out, *st)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].SelfNs != out[j].SelfNs {
			return out[i].SelfNs > out[j].SelfNs
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// covered returns how much of parent's interval its children cover.
func covered(parent Span, kids []Span) int64 {
	if len(kids) == 0 {
		return 0
	}
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var sum int64
	edge := parent.Start
	for _, k := range kids {
		lo, hi := k.Start, k.End
		if lo < edge {
			lo = edge
		}
		if hi > parent.End {
			hi = parent.End
		}
		if hi > lo {
			sum += hi - lo
			edge = hi
		}
	}
	return sum
}
