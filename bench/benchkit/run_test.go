package benchkit

import (
	"reflect"
	"testing"
	"time"
)

func TestKeepQuiet(t *testing.T) {
	steals := []float64{0, 0.30, 0.01, 0.45, stealLimit}
	keep, noisy := keepQuiet(steals, 3)
	if want := []int{0, 2, 4}; noisy || !reflect.DeepEqual(keep, want) {
		t.Errorf("keepQuiet = %v, noisy %v; want %v, quiet", keep, noisy, want)
	}
	// Too few quiet measurements: everything is kept and the run says so.
	keep, noisy = keepQuiet(steals, 4)
	if want := []int{0, 1, 2, 3, 4}; !noisy || !reflect.DeepEqual(keep, want) {
		t.Errorf("keepQuiet = %v, noisy %v; want %v, noisy", keep, noisy, want)
	}
}

func TestAggregateRestatesTimeAtNominalSpeed(t *testing.T) {
	var gained tally
	gained[cBatches] = 5
	r := round{
		sliceStats: sliceStats{elapsed: time.Second, rows: 1000, sent: 1000, sloMiss: 10, cpu: 500 * time.Millisecond,
			latMs: []float64{2, 4}},
		overhead: 3, cpuSpeed: 0.5, wallSpeed: 0.25, counters: gained,
	}
	// A host at half its CPU speed and a quarter of its wall-clock speed: at
	// nominal speed the workload would have spent half the CPU and answered
	// four times the rows, each in a quarter of the time. An open loop's
	// completion rate is the generator's, and reports as measured.
	closed := aggregate([]round{r, r}, false)
	if closed.rate[0] != 4000 || closed.cpuPerRow[0] != 0.25 || !reflect.DeepEqual(closed.lat[0], []float64{0.5, 1}) {
		t.Errorf("closed loop: rate %v, cpu/row %v, latency %v", closed.rate[0], closed.cpuPerRow[0], closed.lat[0])
	}
	open := aggregate([]round{r, r}, true)
	if open.rate[0] != 1000 || open.cpuPerRow[0] != 0.25 || !reflect.DeepEqual(open.lat[0], []float64{0.5, 1}) {
		t.Errorf("open loop: rate %v, cpu/row %v, latency %v", open.rate[0], open.cpuPerRow[0], open.lat[0])
	}
	// Raw values, counts and shares are never restated.
	if closed.rows != 2000 || closed.counters[cBatches] != 10 || !reflect.DeepEqual(closed.rawLat, []float64{2, 4, 2, 4}) ||
		!reflect.DeepEqual(closed.sloMet, []float64{0.99, 0.99}) {
		t.Errorf("rows %d, batches %v, raw latency %v, slo met %v", closed.rows, closed.counters[cBatches], closed.rawLat, closed.sloMet)
	}
}
