// Package benchkit is the library behind `go run ./bench`: the statistics,
// the seeded load schedules, the in-memory span recorder, the result schema
// and the six workloads with their per-layer probes. The CLI in the parent
// directory only parses flags and prints.
package benchkit

import (
	"math"
	"sort"
)

// Median returns the median of xs (the mean of the middle pair for an even
// count), or 0 for an empty sample. xs is not modified.
func Median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	mid := len(s) / 2
	if len(s)%2 == 0 {
		return (s[mid-1] + s[mid]) / 2
	}
	return s[mid]
}

// Percentile returns the nearest-rank q-quantile (0 < q <= 1) of xs: the
// smallest sample such that at least q of the samples are <= it. One sample
// answers every quantile with itself; 0 for an empty sample. xs is not
// modified.
func Percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	idx := int(math.Ceil(float64(len(s))*q)) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(s) {
		idx = len(s) - 1
	}
	return s[idx]
}

// SlicePercentile is the latency estimator of every workload: the median,
// over groups of consecutive slices, of each group's nearest-rank
// q-quantile. Slices are grouped so that every group holds at least
// minSamples samples (one group when the whole window has fewer), which
// keeps ten samples beyond a p90 at minSamples = 100. A host stall then
// spoils one group, not the metric.
func SlicePercentile(slices [][]float64, q float64, minSamples int) float64 {
	var groups [][]float64
	var cur []float64
	for _, s := range slices {
		cur = append(cur, s...)
		if len(cur) >= minSamples {
			groups = append(groups, cur)
			cur = nil
		}
	}
	if len(cur) > 0 {
		if len(groups) == 0 {
			groups = append(groups, cur)
		} else {
			// A short tail joins the last full group.
			groups[len(groups)-1] = append(groups[len(groups)-1], cur...)
		}
	}
	per := make([]float64, len(groups))
	for i, g := range groups {
		per[i] = Percentile(g, q)
	}
	return Median(per)
}

// Spread returns the distance between the first and third quartile of xs as
// a share of its median — the run-to-run noise measure the bounds are
// checked against. It needs at least four values and a non-zero median;
// otherwise it returns 0 and false.
func Spread(xs []float64) (float64, bool) {
	if len(xs) < 4 {
		return 0, false
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	med := Median(s)
	if med == 0 {
		return 0, false
	}
	q1, q3 := quartiles(s)
	return math.Abs((q3 - q1) / med), true
}

// quartiles returns the exclusive-method first and third quartile of a
// sorted sample (the method of Python's statistics.quantiles(n=4)).
func quartiles(sorted []float64) (q1, q3 float64) {
	m := len(sorted)
	at := func(i int) float64 {
		j := i * (m + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > m-1 {
			j = m - 1
		}
		delta := i*(m+1) - j*4
		return (sorted[j-1]*float64(4-delta) + sorted[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}

// Pair measures one round of an A/B comparison back to back: a then b on
// even rounds, b then a on odd ones, so that a slow phase of the host hits
// both sides of one ratio and residual drift changes sign between rounds
// instead of biasing one side.
func Pair(round int, a, b func() float64) (va, vb float64) {
	if round%2 == 0 {
		va = a()
		vb = b()
	} else {
		vb = b()
		va = a()
	}
	return va, vb
}

// PairedMedian is the A/B primitive: it returns the median over rounds of
// the per-round ratio b/a, each round measured by Pair. Each side runs once
// unmeasured first (frequency scaling and cache warm-up favour whichever
// side runs later). The median discards the outlier rounds a best-of cannot.
func PairedMedian(rounds int, a, b func() float64) float64 {
	a()
	b()
	ratios := make([]float64, 0, rounds)
	for i := 0; i < rounds; i++ {
		if va, vb := Pair(i, a, b); va != 0 {
			ratios = append(ratios, vb/va)
		}
	}
	return Median(ratios)
}
