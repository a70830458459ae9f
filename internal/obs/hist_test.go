package obs

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"
)

func TestLogBuckets(t *testing.T) {
	b := LogBuckets(1e-3, 1, 3)
	if b[0] != 1e-3 {
		t.Fatalf("first bound %v, want 1e-3", b[0])
	}
	if last := b[len(b)-1]; last < 1 {
		t.Fatalf("last bound %v does not cover max 1", last)
	}
	// 3 per decade over 3 decades: 10 bounds including both endpoints.
	if len(b) != 10 {
		t.Fatalf("got %d bounds, want 10: %v", len(b), b)
	}
	for i := 1; i < len(b); i++ {
		if b[i] <= b[i-1] {
			t.Fatalf("bounds not ascending at %d: %v", i, b)
		}
		ratio := b[i] / b[i-1]
		if want := math.Pow(10, 1.0/3); math.Abs(ratio-want) > 1e-9 {
			t.Fatalf("bucket ratio %v, want %v", ratio, want)
		}
	}
	for _, bad := range []func(){
		func() { LogBuckets(0, 1, 3) },
		func() { LogBuckets(1, 1, 3) },
		func() { LogBuckets(1e-3, 1, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("bad LogBuckets args did not panic")
				}
			}()
			bad()
		}()
	}
}

func TestHistogramBucketsAndQuantiles(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("test_latency_seconds", "x", []float64{0.01, 0.1, 1})
	for i := 0; i < 99; i++ {
		h.Observe(0.005) // first bucket
	}
	h.Observe(5) // above every bound: +Inf only

	if h.Count() != 100 {
		t.Fatalf("count %d, want 100", h.Count())
	}
	if sum := h.Sum(); math.Abs(sum-(99*0.005+5)) > 1e-9 {
		t.Fatalf("sum %v", sum)
	}
	// Exact nearest-rank quantiles from the live ring: P50 and P90 land on
	// the 0.005 mass, P100 on the outlier.
	if q := h.Quantile(0.5); q != 0.005 {
		t.Fatalf("P50 %v, want 0.005", q)
	}
	if q := h.Quantile(0.99); q != 0.005 {
		t.Fatalf("P99 %v, want 0.005 (99 of 100 samples)", q)
	}
	if q := h.Quantile(1); q != 5 {
		t.Fatalf("P100 %v, want 5", q)
	}

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE test_latency_seconds histogram",
		`test_latency_seconds_bucket{le="0.01"} 99`,
		`test_latency_seconds_bucket{le="0.1"} 99`, // cumulative
		`test_latency_seconds_bucket{le="1"} 99`,
		`test_latency_seconds_bucket{le="+Inf"} 100`,
		"test_latency_seconds_count 100",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
}

// TestQuantilePartialWindow pins the nearest-rank quantile on small
// samples — a P99 over a two-element window is the larger one, not
// sorted[2*99/100] — on a histogram, and on a vec whose children split the
// same samples (observed out of order) between two labels.
func TestQuantilePartialWindow(t *testing.T) {
	seq := make([]float64, 100) // 1..100: P99 is the 99th value, not the maximum
	for i := range seq {
		seq[i] = float64(i + 1)
	}
	for _, c := range []struct {
		samples  []float64
		p50, p99 float64
	}{
		{nil, 0, 0},
		{[]float64{10}, 10, 10},
		{[]float64{20, 10}, 10, 20},
		{[]float64{30, 10, 20}, 20, 30},
		{seq, 50, 99},
	} {
		r := NewRegistry()
		h := r.Histogram("test_h", "x", LatencyBuckets())
		hv := r.HistogramVec("test_hv", "x", "tenant", LatencyBuckets())
		for i, v := range c.samples {
			h.Observe(v)
			hv.Observe([]string{"a", "b"}[i%2], v)
		}
		for _, q := range []struct{ q, want float64 }{{0.50, c.p50}, {0.99, c.p99}} {
			if got := h.Quantile(q.q); got != q.want {
				t.Errorf("histogram q%v of %d samples = %v, want %v", q.q, len(c.samples), got, q.want)
			}
			if got := hv.Quantile(q.q); got != q.want {
				t.Errorf("merged vec q%v of %d samples = %v, want %v", q.q, len(c.samples), got, q.want)
			}
		}
	}
}

func TestCounterVec(t *testing.T) {
	r := NewRegistry()
	cv := r.CounterVec("test_requests_total", "x", "tenant", "outcome")
	cv.With("gold", "completed").Add(3)
	cv.With("gold", "failed").Inc()
	cv.With("bronze", "completed").Inc()
	cv.With("gold", "completed").Inc()

	var got []string
	cv.Each(func(v []string, n int64) { got = append(got, fmt.Sprint(v, n)) })
	if want := []string{"[gold completed] 4", "[gold failed] 1", "[bronze completed] 1"}; !slices.Equal(got, want) {
		t.Fatalf("Each = %v, want %v (first-use order)", got, want)
	}
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"# TYPE test_requests_total counter",
		`test_requests_total{outcome="completed",tenant="gold"} 4`,
		`test_requests_total{outcome="failed",tenant="gold"} 1`,
		`test_requests_total{outcome="completed",tenant="bronze"} 1`,
	} {
		if !strings.Contains(b.String(), want) {
			t.Fatalf("exposition missing %q:\n%s", want, b.String())
		}
	}
	// A warmed child costs no allocation to reach: the hot-path property
	// serve's per-batch accounting relies on.
	if n := testing.AllocsPerRun(100, func() { cv.With("gold", "completed").Inc() }); n != 0 {
		t.Fatalf("With on a warmed child allocates %v times", n)
	}

	var nilVec *CounterVec
	nilVec.With("x").Inc()
	nilVec.Each(func([]string, int64) { t.Fatal("nil vec has a child") })
	var nilReg *Registry
	if nilReg.CounterVec("x", "", "l") != nil {
		t.Fatal("nil registry minted a counter vec")
	}
}

func TestHistogramRingWindow(t *testing.T) {
	h := newHistogram([]float64{1e9})
	// Overflow the ring: quantiles must reflect the most recent
	// histRingCap observations, not the whole history.
	for i := 0; i < histRingCap; i++ {
		h.Observe(1000) // old mass, fully evicted below
	}
	for i := 0; i < histRingCap; i++ {
		h.Observe(1)
	}
	if q := h.Quantile(1); q != 1 {
		t.Fatalf("max over live ring = %v, want 1 (old mass evicted)", q)
	}
	if h.Count() != 2*histRingCap {
		t.Fatalf("count %d, want %d (buckets keep full history)", h.Count(), 2*histRingCap)
	}
}

func TestHistogramVecExposition(t *testing.T) {
	r := NewRegistry()
	hv := r.HistogramVec("test_tenant_latency_seconds", "x", "tenant", []float64{0.1, 1})
	hv.Observe("gold", 0.05)
	hv.Observe("gold", 0.05)
	hv.Observe("bronze", 0.5)

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		`test_tenant_latency_seconds_bucket{tenant="gold",le="0.1"} 2`,
		`test_tenant_latency_seconds_bucket{tenant="gold",le="+Inf"} 2`,
		`test_tenant_latency_seconds_count{tenant="gold"} 2`,
		`test_tenant_latency_seconds_bucket{tenant="bronze",le="0.1"} 0`,
		`test_tenant_latency_seconds_bucket{tenant="bronze",le="1"} 1`,
		`test_tenant_latency_seconds_count{tenant="bronze"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
	if hv.With("gold").Quantile(0.5) != 0.05 {
		t.Fatal("child quantile wrong")
	}

	// JSON dump carries per-child buckets and quantiles.
	js, err := r.DumpJSON()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"label": "gold"`, `"label": "bronze"`, `"0.99"`} {
		if !strings.Contains(string(js), want) {
			t.Fatalf("JSON dump missing %q:\n%s", want, js)
		}
	}
}

func TestHistogramNilSafety(t *testing.T) {
	var h *Histogram
	h.Observe(1)
	if h.Quantile(0.5) != 0 || h.Count() != 0 || h.Sum() != 0 {
		t.Fatal("nil histogram not inert")
	}
	var hv *HistogramVec
	hv.Observe("x", 1)
	if hv.With("x") != nil {
		t.Fatal("nil vec minted a child")
	}
	var r *Registry
	if r.Histogram("x", "", nil) != nil || r.HistogramVec("x", "", "l", nil) != nil {
		t.Fatal("nil registry minted a histogram")
	}
}

func TestHashWeightsOrderSensitive(t *testing.T) {
	a := HashWeights([]float64{1, 2, 3})
	b := HashWeights([]float64{3, 2, 1})
	if a == b {
		t.Fatal("hash ignores order")
	}
	if a != HashWeights([]float64{1, 2, 3}) {
		t.Fatal("hash not deterministic")
	}
	if HashWeights(nil) == HashWeights([]float64{0}) {
		t.Fatal("hash ignores length")
	}
}
