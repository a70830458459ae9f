package benchkit

import (
	"math"
	"reflect"
	"testing"
	"time"
)

func TestMedianAndPercentile(t *testing.T) {
	if got := Median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("odd median = %v, want 3", got)
	}
	if got := Median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v, want 2.5", got)
	}
	if got := Median(nil); got != 0 {
		t.Errorf("empty median = %v, want 0", got)
	}
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // 100..1, unsorted on purpose
	}
	for _, c := range []struct{ q, want float64 }{{0.50, 50}, {0.99, 99}, {1, 100}, {0.001, 1}} {
		if got := Percentile(xs, c.q); got != c.want {
			t.Errorf("p%v of 1..100 = %v, want %v", c.q, got, c.want)
		}
	}
	// Nearest rank: one sample answers every quantile, and p99 only leaves
	// the maximum once more than 100 samples have arrived.
	if got := Percentile([]float64{7}, 0.99); got != 7 {
		t.Errorf("p99 of one sample = %v, want 7", got)
	}
	if got := Percentile(append(xs, 101), 0.99); got != 100 {
		t.Errorf("p99 of 1..101 = %v, want 100", got)
	}
	if xs[0] != 100 {
		t.Error("Percentile sorted its argument in place")
	}
}

func TestSlicePercentile(t *testing.T) {
	// Three slices of three samples; the middle one holds a stall.
	slices := [][]float64{{1, 2, 3}, {1, 2, 90}, {1, 2, 4}}
	if got := SlicePercentile(slices, 1, 1); got != 4 {
		t.Errorf("median of per-slice maxima = %v, want 4 (the stall spoils one slice)", got)
	}
	// minSamples 6 merges slices pairwise; the short tail joins the last
	// full group, so there is a single group of nine.
	if got := SlicePercentile(slices, 1, 6); got != 90 {
		t.Errorf("one merged group: max = %v, want 90", got)
	}
	// Fewer samples than minSamples in the whole window: one group.
	if got := SlicePercentile(slices, 0.5, 1000); got != 2 {
		t.Errorf("whole-window median = %v, want 2", got)
	}
	if got := SlicePercentile(nil, 0.5, 1); got != 0 {
		t.Errorf("empty window = %v, want 0", got)
	}
}

func TestSpreadMatchesPythonQuantiles(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25].
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	got, ok := Spread(xs)
	if want := (8.25 - 2.75) / 5.5; !ok || math.Abs(got-want) > 1e-12 {
		t.Errorf("Spread = %v, %v; want %v", got, ok, want)
	}
	// statistics.quantiles([2, 4, 4, 5, 7], n=4) == [3.0, 4.0, 6.0].
	got, ok = Spread([]float64{2, 4, 4, 5, 7})
	if want := 3.0 / 4.0; !ok || math.Abs(got-want) > 1e-12 {
		t.Errorf("Spread = %v, %v; want %v", got, ok, want)
	}
	if _, ok := Spread([]float64{1, 2, 3}); ok {
		t.Error("Spread of three values reported ok")
	}
}

func TestPairedMedianOrderAndRatio(t *testing.T) {
	var order []string
	aVals := []float64{99, 10, 10, 10, 10, 10} // first is the warm-up
	bVals := []float64{99, 20, 30, 5, 20, 20}
	ai, bi := 0, 0
	a := func() float64 { order = append(order, "a"); ai++; return aVals[ai-1] }
	b := func() float64 { order = append(order, "b"); bi++; return bVals[bi-1] }
	got := PairedMedian(5, a, b)
	// Ratios b/a: 2, 3, 0.5, 2, 2 → median 2; the warm-up pair is discarded.
	if got != 2 {
		t.Errorf("PairedMedian = %v, want 2", got)
	}
	want := []string{"a", "b", "a", "b", "b", "a", "a", "b", "b", "a", "a", "b"}
	if !reflect.DeepEqual(order, want) {
		t.Errorf("call order %v, want warm-up then alternating %v", order, want)
	}
}

func TestPoissonScheduleIsAPureFunctionOfSeed(t *testing.T) {
	tenants := []TenantShare{{"a", 0.75}, {"b", 0.25}}
	s1 := PoissonSchedule(42, 1000, time.Second, 64, tenants)
	s2 := PoissonSchedule(42, 1000, time.Second, 64, tenants)
	if !reflect.DeepEqual(s1, s2) {
		t.Fatal("same seed gave two schedules")
	}
	if reflect.DeepEqual(s1, PoissonSchedule(43, 1000, time.Second, 64, tenants)) {
		t.Fatal("another seed gave the same schedule")
	}
	if n := len(s1); n < 850 || n > 1150 {
		t.Errorf("%d arrivals in 1 s at 1000/s", n)
	}
	var last time.Duration
	nA := 0
	for _, a := range s1 {
		if a.Due < last || a.Due >= time.Second {
			t.Fatalf("arrival due %v after %v", a.Due, last)
		}
		last = a.Due
		if a.Image < 0 || a.Image >= 64 {
			t.Fatalf("image %d outside the request set", a.Image)
		}
		switch a.Tenant {
		case "a":
			nA++
		case "b":
		default:
			t.Fatalf("tenant %q", a.Tenant)
		}
	}
	if share := float64(nA) / float64(len(s1)); share < 0.68 || share > 0.82 {
		t.Errorf("tenant a got %.3f of the traffic, want about 0.75", share)
	}
	// No tenants: every arrival carries the empty (default) tag.
	for _, a := range PoissonSchedule(1, 100, time.Second, 4, nil) {
		if a.Tenant != "" {
			t.Fatalf("untagged schedule carries tenant %q", a.Tenant)
		}
	}
}
