package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"sync"
	"time"
)

// Event kinds emitted by the stack. Kind is an open string set — these
// constants are the vocabulary the serving stack uses today.
const (
	KindGrant      = "grant"          // gang granted to a tenant
	KindRelease    = "release"        // gang released back to the pool
	KindQuarantine = "quarantine"     // device Healthy/Probation → Quarantined
	KindProbation  = "probation"      // device released into probation
	KindReadmit    = "readmit"        // device promoted back to Healthy
	KindSpeculate  = "speculate"      // straggler re-dispatch to a spare
	KindIntegrity  = "integrity"      // integrity verdict (attributed or suspect)
	KindNoisePool  = "noisepool-miss" // noise pool exhausted, inline fallback
	KindSLOBreach  = "slo-breach"     // SLO burn rate crossed the threshold (or cleared)
	KindBrownout   = "brownout"       // degradation controller changed its level
	KindShed       = "shed"           // admission control rejected a request
	KindRetry      = "retry"          // failed virtual batch re-dispatched onto a fresh gang
	KindHedge      = "hedge"          // speculative duplicate flight launched (or resolved)
	KindChaos      = "chaos"          // scripted fault-schedule action applied
)

// Event is one structured entry in the flight recorder. Seq and Time are
// stamped by Record; the rest is caller-supplied. Device and Slot use -1
// for "not applicable".
type Event struct {
	Seq       int64     `json:"seq"`
	Time      time.Time `json:"time"`
	Kind      string    `json:"kind"`
	Subsystem string    `json:"subsystem"`
	Device    int       `json:"device"`
	Slot      int       `json:"slot"`
	Tenant    string    `json:"tenant,omitempty"`
	Detail    string    `json:"detail,omitempty"`
}

// String renders one event as a log-style line.
func (e Event) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "#%d %s [%s] %s", e.Seq, e.Time.Format("15:04:05.000000"), e.Subsystem, e.Kind)
	if e.Device >= 0 {
		fmt.Fprintf(&b, " dev=%d", e.Device)
	}
	if e.Slot >= 0 {
		fmt.Fprintf(&b, " slot=%d", e.Slot)
	}
	if e.Tenant != "" {
		fmt.Fprintf(&b, " tenant=%s", e.Tenant)
	}
	if e.Detail != "" {
		fmt.Fprintf(&b, " %s", e.Detail)
	}
	return b.String()
}

// FlightRecorder is a bounded ring of Events. Recording takes one short
// mutex hold and copies a value struct into preallocated storage — cheap
// enough for the grant/release path — and the ring discards the oldest
// entries once full, so it can run forever. All methods are no-ops (or
// return zero values) on a nil receiver.
type FlightRecorder struct {
	mu   sync.Mutex
	buf  []Event // ring storage, len == cap once full
	cap  int
	next int
	full bool
	seq  int64
}

// DefaultRecorderSize is the event capacity used when none is given.
const DefaultRecorderSize = 1024

// NewFlightRecorder builds a recorder holding up to size events
// (DefaultRecorderSize when size <= 0).
func NewFlightRecorder(size int) *FlightRecorder {
	if size <= 0 {
		size = DefaultRecorderSize
	}
	return &FlightRecorder{buf: make([]Event, 0, size), cap: size}
}

// Record appends one event, stamping Seq and Time. Device/Slot zero
// values are preserved; callers pass -1 for "not applicable".
func (r *FlightRecorder) Record(ev Event) {
	if r == nil {
		return
	}
	now := time.Now()
	r.mu.Lock()
	r.seq++
	ev.Seq = r.seq
	ev.Time = now
	if len(r.buf) < r.cap {
		r.buf = append(r.buf, ev)
	} else {
		r.buf[r.next] = ev
		r.next = (r.next + 1) % r.cap
		r.full = true
	}
	r.mu.Unlock()
}

// Dump returns the retained events, oldest first.
func (r *FlightRecorder) Dump() []Event {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.full {
		return append([]Event(nil), r.buf...)
	}
	out := make([]Event, 0, len(r.buf))
	out = append(out, r.buf[r.next:]...)
	out = append(out, r.buf[:r.next]...)
	return out
}

// Len returns the number of retained events.
//
//lint:ignore testonly test fixture for the obs and serve tests
func (r *FlightRecorder) Len() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.buf)
}

// Dropped returns how many events have been overwritten by the ring.
func (r *FlightRecorder) Dropped() int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.seq - int64(len(r.buf))
}

// WriteJSON writes the retained events as a JSON array.
func (r *FlightRecorder) WriteJSON(w io.Writer) error {
	events := r.Dump()
	if events == nil {
		events = []Event{}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(events)
}

// FormatEvents renders a slice of events as one string, one line per
// event — the shape chaos tests dump on failure.
//
//lint:ignore testonly test fixture for the obs and serve tests
func FormatEvents(events []Event) string {
	var b strings.Builder
	for _, e := range events {
		b.WriteString(e.String())
		b.WriteByte('\n')
	}
	return b.String()
}
