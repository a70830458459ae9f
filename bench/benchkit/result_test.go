package benchkit

import (
	"path/filepath"
	"reflect"
	"testing"
	"time"
)

func TestSelfTimeArithmetic(t *testing.T) {
	spans := []Span{
		{ID: 1, Name: "request", Start: 0, End: 100},
		// Two overlapping children and one that outlives the parent: the
		// union [10,60] ∪ [90,100] covers 60 of the parent's 100.
		{ID: 2, Parent: 1, Name: "infer_call", Start: 10, End: 50},
		{ID: 3, Parent: 1, Name: "infer_call", Start: 40, End: 60},
		{ID: 4, Parent: 1, Name: "infer_call", Start: 90, End: 130},
		{ID: 5, Name: "request", Start: 200, End: 230}, // childless
	}
	got := SelfTimes(spans)
	want := []SelfTime{
		{Name: "infer_call", Count: 3, TotalNs: 100, SelfNs: 100},
		{Name: "request", Count: 2, TotalNs: 130, SelfNs: 70},
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("SelfTimes = %+v, want %+v", got, want)
	}
}

func TestRecorderRecordsOnlyWhileEnabled(t *testing.T) {
	var none *Recorder
	none.Enable(true)
	none.Add(none.NewID(), 0, 0, "x", time.Now(), time.Now())
	if spans, _ := none.Spans(); spans != nil {
		t.Error("nil recorder returned spans")
	}
	r := NewRecorder()
	now := time.Now()
	r.Add(r.NewID(), 0, 1, "off", now, now) // switched off: ID 0, dropped
	r.Enable(true)
	parent := r.NewID()
	r.Add(r.NewID(), parent, 2, "child", now, now.Add(time.Millisecond))
	r.Add(parent, 0, 2, "parent", now, now.Add(2*time.Millisecond))
	spans, dropped := r.Spans()
	if len(spans) != 2 || dropped != 0 {
		t.Fatalf("%d spans, %d dropped; want 2, 0", len(spans), dropped)
	}
	if spans[0].Parent != spans[1].ID || spans[0].Req != spans[1].Req {
		t.Errorf("child %+v does not point at parent %+v", spans[0], spans[1])
	}
	if d := spans[1].End - spans[1].Start; d != int64(2*time.Millisecond) {
		t.Errorf("parent lasts %d ns", d)
	}
}

func sampleResult(rows ...float64) *Result {
	r := &Result{Schema: SchemaVersion, Host: Host{CPUModel: "cpu", Cores: 2, GOMAXPROCS: 2, GoVersion: "go1.24", GitCommit: "abc"}}
	for i, v := range rows {
		r.Runs = append(r.Runs, Run{Workload: "infer_compute", Seed: int64(i + 1), Seconds: 8, Correct: true, Attempted: 10,
			EndToEnd: map[string]Value{"rows_per_s": {v, "1/s"}, "latency_p50_ms": {1000 / v, "ms"}},
			PerLayer: map[string]Value{"sched.flights_per_batch": {6, "count"}}})
	}
	return r
}

func TestResultRoundTrip(t *testing.T) {
	want := sampleResult(100, 101)
	want.Runs[0].Checks = []string{"a check"}
	want.Runs[0].SelfTimes = []SelfTime{{Name: "request", Count: 1, TotalNs: 5, SelfNs: 3}}
	path := filepath.Join(t.TempDir(), "sub", "r.json")
	if err := want.Save(path); err != nil {
		t.Fatal(err)
	}
	got, err := LoadResult(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("round trip changed the result:\n got %+v\nwant %+v", got, want)
	}
	want.Schema = SchemaVersion + 1
	if err := want.Save(path); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadResult(path); err == nil {
		t.Error("another schema version was accepted")
	}
}

func TestCompareVerdicts(t *testing.T) {
	outcome := func(base, cur *Result, metric string) string {
		for _, v := range Compare(base, cur) {
			if v.Metric == metric {
				return v.Outcome
			}
		}
		return "missing"
	}
	bound := EndToEnd[1].Bound // rows_per_s
	if EndToEnd[1].Name != "rows_per_s" {
		t.Fatal("catalogue order changed")
	}
	base := sampleResult(100)
	for _, c := range []struct {
		cur  float64
		want string
	}{
		{100 * (1 - bound/2), "within_bound"},
		{100 * (1 + bound/2), "within_bound"},
		{100 * (1 - 2*bound), "worse"},
		{100 * (1 + 2*bound), "better"},
	} {
		if got := outcome(base, sampleResult(c.cur), "rows_per_s"); got != c.want {
			t.Errorf("rows_per_s 100 → %v: %s, want %s", c.cur, got, c.want)
		}
	}
	// latency is lower-is-better: throughput ×(1+2·bound) shrinks it.
	if got := outcome(base, sampleResult(100*(1+4*bound)), "latency_p50_ms"); got != "better" {
		t.Errorf("lower latency judged %s", got)
	}
	// Four noisy runs a side whose spread exceeds the bound: unresolved,
	// unless every new run beats every base run.
	noisy := sampleResult(80, 100, 120, 140)
	if got := outcome(noisy, sampleResult(85, 105, 125, 135), "rows_per_s"); got != "unresolved" {
		t.Errorf("noisy overlap judged %s, want unresolved", got)
	}
	if got := outcome(noisy, sampleResult(150, 170, 190, 210), "rows_per_s"); got != "better" {
		t.Errorf("every run better judged %s, want better", got)
	}
	// A traced run carries no end-to-end metrics and is ignored.
	traced := sampleResult(1)
	traced.Runs[0].Trace = true
	if v := Compare(base, traced); len(v) != 0 {
		t.Errorf("traced run was compared: %+v", v)
	}
}
