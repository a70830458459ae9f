package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"strings"
	"testing"
	"time"
)

func TestSpanTreeShape(t *testing.T) {
	tr := NewTracer(1, 16, 1)
	root := tr.Start("request")
	root.Annotate("tenant", "gold")
	admit := root.Child("admit")
	admit.End()
	batch := root.Child("batch")
	off := batch.Child("offload")
	enc := off.Child("encode")
	enc.End()
	off.Child("dispatch").End()
	off.Child("decode").End()
	off.End()
	batch.End()
	root.End()

	if !root.Ended() {
		t.Fatal("root not ended")
	}
	if got := root.Find("encode"); got != enc {
		t.Fatalf("Find(encode) = %v", got)
	}
	if got := root.Find("encode").Parent(); got != off {
		t.Fatalf("encode parented to %q, want offload", got.Name())
	}
	if got := root.Attr("tenant"); got != "gold" {
		t.Fatalf("tenant attr = %q", got)
	}
	var names []string
	root.Walk(func(s *Span) { names = append(names, s.Name()) })
	want := []string{"request", "admit", "batch", "offload", "encode", "dispatch", "decode"}
	if fmt.Sprint(names) != fmt.Sprint(want) {
		t.Fatalf("walk order %v, want %v", names, want)
	}
	if n := len(root.FindAll("offload")); n != 1 {
		t.Fatalf("FindAll(offload) = %d", n)
	}
	if len(tr.Recent()) != 1 || tr.Recent()[0] != root {
		t.Fatal("completed root not filed into recent ring")
	}
}

func TestSpanEndClosesDescendants(t *testing.T) {
	tr := NewTracer(1, 4, 1)
	root := tr.Start("request")
	child := root.Child("batch")
	grand := child.Child("offload")
	root.End() // error path: abandon open descendants
	if !child.Ended() || !grand.Ended() {
		t.Fatal("End did not close open descendants")
	}
	if grand.Duration() < 0 {
		t.Fatal("negative duration after forced close")
	}
	// Idempotent: a second End must not double-file the trace.
	root.End()
	if got := len(tr.Recent()); got != 1 {
		t.Fatalf("recent ring has %d entries after double End", got)
	}
}

func TestNilSpanIsFreeAndSafe(t *testing.T) {
	var s *Span
	// The whole disabled path must be exactly zero-alloc: Child on nil,
	// annotations, End, lookups.
	if allocs := testing.AllocsPerRun(100, func() {
		c := s.Child("x")
		c.Annotate("k", "v")
		c.Annotatef("k", "%d", 1)
		c.End()
		_ = c.Find("x")
		_ = c.Attr("k")
		_ = c.Duration()
	}); allocs != 0 {
		t.Fatalf("nil span ops allocate %.1f/op, want 0", allocs)
	}
	var tr *Tracer
	if sp := tr.Start("x"); sp != nil {
		t.Fatal("nil tracer minted a span")
	}
	if tr := NewTracer(0, 4, 1); tr.Start("x") != nil {
		t.Fatal("zero-rate tracer minted a span")
	}
}

func TestSamplingIsSeededAndProportional(t *testing.T) {
	tr := NewTracer(0.25, 1024, 42)
	sampled := 0
	const n = 4000
	for i := 0; i < n; i++ {
		if sp := tr.Start("r"); sp != nil {
			sampled++
			sp.End()
		}
	}
	if sampled < n/8 || sampled > n/2 {
		t.Fatalf("sampled %d of %d at rate 0.25", sampled, n)
	}
	started, traced, completed := tr.Counts()
	if started != n || traced != int64(sampled) || completed != int64(sampled) {
		t.Fatalf("counts = (%d,%d,%d), want (%d,%d,%d)", started, traced, completed, n, sampled, sampled)
	}
	// Same seed, same draws.
	tr2 := NewTracer(0.25, 1024, 42)
	sampled2 := 0
	for i := 0; i < n; i++ {
		if sp := tr2.Start("r"); sp != nil {
			sampled2++
			sp.End()
		}
	}
	if sampled2 != sampled {
		t.Fatalf("same seed sampled %d then %d", sampled, sampled2)
	}
}

func TestTracerRecentRingRotates(t *testing.T) {
	tr := NewTracer(1, 3, 1)
	for i := 0; i < 5; i++ {
		sp := tr.Start("r")
		sp.Annotatef("i", "%d", i)
		sp.End()
	}
	recent := tr.Recent()
	if len(recent) != 3 {
		t.Fatalf("ring holds %d, want 3", len(recent))
	}
	for i, sp := range recent {
		if want := fmt.Sprint(i + 2); sp.Attr("i") != want {
			t.Fatalf("ring[%d] = trace %s, want %s (oldest first)", i, sp.Attr("i"), want)
		}
	}
}

func TestBreakdownSelfTime(t *testing.T) {
	root := &Span{name: "request", start: time.Now().Add(-100 * time.Millisecond)}
	child := root.Child("work")
	child.start = root.start.Add(20 * time.Millisecond)
	child.end = child.start.Add(50 * time.Millisecond)
	root.end = root.start.Add(100 * time.Millisecond)
	bd := root.Breakdown()
	if got := bd["work"]; got != 50*time.Millisecond {
		t.Fatalf("work self time %v", got)
	}
	if got := bd["request"]; got != 50*time.Millisecond {
		t.Fatalf("request self time %v (100ms minus 50ms child)", got)
	}
	var b strings.Builder
	root.RenderBreakdown(&b)
	if !strings.Contains(b.String(), "work") {
		t.Fatalf("breakdown render missing span name:\n%s", b.String())
	}
}

func TestRegistryPrometheusRoundTrip(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_requests_total", "Requests.")
	c.Add(41)
	c.Inc()
	g := r.Gauge("test_depth", "Depth.")
	g.Set(3)
	g.Add(-1)
	r.CounterFunc("test_computed_total", "Computed.", func() float64 { return 7 })
	r.SampleFunc("test_labeled_total", "Labeled.", "counter", func() []Sample {
		return []Sample{
			{Labels: map[string]string{"tenant": "gold", "outcome": "ok"}, Value: 5},
			{Labels: map[string]string{"tenant": "bronze", "outcome": "ok"}, Value: 2},
		}
	})
	h := r.Histogram("test_latency_seconds", "Latency.", []float64{0.001, 0.01, 0.1})
	h.Observe(0.0005)
	h.Observe(0.05)
	h.Observe(5)

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	got, err := ParsePrometheus(strings.NewReader(b.String()))
	if err != nil {
		t.Fatalf("exposition does not parse: %v\n%s", err, b.String())
	}
	checks := map[string]float64{
		"test_requests_total": 42,
		"test_depth":          2,
		"test_computed_total": 7,
		`test_labeled_total{outcome="ok",tenant="gold"}`:   5,
		`test_labeled_total{outcome="ok",tenant="bronze"}`: 2,
		`test_latency_seconds_bucket{le="0.001"}`:          1,
		`test_latency_seconds_bucket{le="0.01"}`:           1,
		`test_latency_seconds_bucket{le="0.1"}`:            2,
		`test_latency_seconds_bucket{le="+Inf"}`:           3,
		"test_latency_seconds_count":                       3,
	}
	for name, want := range checks {
		if got[name] != want {
			t.Errorf("%s = %v, want %v", name, got[name], want)
		}
	}

	js, err := r.DumpJSON()
	if err != nil {
		t.Fatal(err)
	}
	var dump []map[string]any
	if err := json.Unmarshal(js, &dump); err != nil {
		t.Fatalf("JSON dump does not parse: %v", err)
	}
	if len(dump) != 5 {
		t.Fatalf("JSON dump has %d series, want 5", len(dump))
	}
}

func TestRegistryDuplicatePanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("dup_total", "x")
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate registration did not panic")
		}
	}()
	r.CounterFunc("dup_total", "y", func() float64 { return 0 })
}

func TestNilRegistryIsSafe(t *testing.T) {
	var r *Registry
	c := r.Counter("x_total", "x")
	c.Inc()
	g := r.Gauge("y", "y")
	g.Set(1)
	h := r.Histogram("z", "z", []float64{1})
	h.Observe(0.5)
	r.CounterFunc("f", "f", func() float64 { return 0 })
	if err := r.WritePrometheus(io.Discard); err == nil {
		t.Fatal("nil registry WritePrometheus should error")
	}
}

func TestFlightRecorderRing(t *testing.T) {
	r := NewFlightRecorder(4)
	for i := 0; i < 7; i++ {
		r.Record(Event{Kind: KindGrant, Subsystem: "test", Device: i, Slot: -1})
	}
	if r.Len() != 4 {
		t.Fatalf("ring holds %d, want 4", r.Len())
	}
	if r.Dropped() != 3 {
		t.Fatalf("dropped %d, want 3", r.Dropped())
	}
	events := r.Dump()
	for i, ev := range events {
		if want := int64(i + 4); ev.Seq != want {
			t.Fatalf("dump[%d].Seq = %d, want %d (oldest first)", i, ev.Seq, want)
		}
		if ev.Time.IsZero() {
			t.Fatal("Record did not stamp Time")
		}
	}
	since := r.DumpSince(5)
	if len(since) != 2 || since[0].Seq != 6 {
		t.Fatalf("DumpSince(5) = %+v", since)
	}
	if r.DumpSince(r.seq) != nil {
		t.Fatal("DumpSince(last) should be empty")
	}
	txt := FormatEvents(events)
	if !strings.Contains(txt, "grant") || !strings.Contains(txt, "dev=6") {
		t.Fatalf("FormatEvents output:\n%s", txt)
	}
	var nilRec *FlightRecorder
	nilRec.Record(Event{}) // must not panic
	if nilRec.Dump() != nil || nilRec.Len() != 0 {
		t.Fatal("nil recorder not inert")
	}
}

func TestObservabilityBundleAndHTTP(t *testing.T) {
	o := New(Options{TraceSample: 1, TraceKeep: 4, RecorderSize: 8, Seed: 1})
	sp := o.StartTrace("request")
	sp.Child("admit").End()
	sp.End()
	o.Recorder.Record(Event{Kind: KindQuarantine, Subsystem: "fleet", Device: 2, Slot: -1, Detail: "test"})
	o.Reg().CounterFunc("bundle_test_total", "x", func() float64 { return 9 })

	ms, err := o.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ms.Close()

	get := func(path string) string {
		resp, err := http.Get("http://" + ms.Addr() + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(body)
	}

	metrics := get("/metrics")
	parsed, err := ParsePrometheus(strings.NewReader(metrics))
	if err != nil {
		t.Fatalf("/metrics does not parse: %v", err)
	}
	if parsed["bundle_test_total"] != 9 {
		t.Fatalf("bundle_test_total = %v", parsed["bundle_test_total"])
	}
	var js any
	if err := json.Unmarshal([]byte(get("/metrics.json")), &js); err != nil {
		t.Fatalf("/metrics.json does not parse: %v", err)
	}
	if traces := get("/traces"); !strings.Contains(traces, "request") || !strings.Contains(traces, "admit") {
		t.Fatalf("/traces output:\n%s", traces)
	}
	var events []Event
	if err := json.Unmarshal([]byte(get("/flightrecorder")), &events); err != nil {
		t.Fatalf("/flightrecorder does not parse: %v", err)
	}
	if len(events) != 1 || events[0].Kind != KindQuarantine {
		t.Fatalf("/flightrecorder events = %+v", events)
	}
}

func TestNilObservability(t *testing.T) {
	var o *Observability
	if sp := o.StartTrace("x"); sp != nil {
		t.Fatal("nil bundle minted a span")
	}
	if o.Reg() != nil {
		t.Fatal("nil bundle returned a registry")
	}
	if err := o.WriteMetrics(io.Discard); err == nil {
		t.Fatal("nil bundle WriteMetrics should error")
	}
	if _, err := o.Serve("127.0.0.1:0"); err == nil {
		t.Fatal("nil bundle Serve should error")
	}
}

// DumpSince returns retained events with Seq > seq, oldest first.
func (r *FlightRecorder) DumpSince(seq int64) []Event {
	all := r.Dump()
	for i, e := range all {
		if e.Seq > seq {
			return all[i:]
		}
	}
	return nil
}

// Set stores v. Nil-safe.
func (g *Gauge) Set(v float64) {
	if g != nil {
		g.bits.Store(math.Float64bits(v))
	}
}
