package benchkit

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"darknight"
)

// Options selects one run of one workload.
type Options struct {
	// Seed generates the request images, the Poisson schedule and the
	// tenant tags. The deployment keeps its own fixed seed.
	Seed int64
	// Seconds is the measured window: that many one-second slices.
	Seconds int
	// Trace adds the harness's spans to every second slice, the queue-depth
	// sampler and the probe ladder. End-to-end metrics are not reported
	// from a traced run.
	Trace bool
	// Quick shrinks every duration so that all six workloads finish in a
	// few seconds: it proves that every metric is emitted, not what it is.
	// The set-up trains too briefly for its checks (pre-phase loss, float
	// accuracy, class match) to mean anything, so they are not applied.
	Quick bool
	// OutDir receives the span file of a traced run.
	OutDir string
	// Log receives the progress lines (nil = discard).
	Log io.Writer
}

// timing is the set of durations a run uses, full or quick.
type timing struct {
	slice, float, calib, probe time.Duration
	setups, setupSteps         int
	checkSteps                 int
	obsRounds                  int
	obsRound                   time.Duration
}

func (o Options) timing() timing {
	if o.Quick {
		return timing{slice: 150 * time.Millisecond, float: 30 * time.Millisecond, calib: 5 * time.Millisecond, probe: time.Millisecond,
			setups: 1, setupSteps: 16, checkSteps: 2, obsRounds: 2, obsRound: 20 * time.Millisecond}
	}
	return timing{slice: time.Second, float: 250 * time.Millisecond, calib: 150 * time.Millisecond, probe: 40 * time.Millisecond,
		setups: 5, setupSteps: setupSteps, checkSteps: checkSteps, obsRounds: 9, obsRound: 150 * time.Millisecond}
}

// Procs is the GOMAXPROCS every run uses: min(nproc, 4).
func Procs() int {
	n := runtime.NumCPU()
	if n > 4 {
		n = 4
	}
	return n
}

// cpuTime returns the process's user+system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// hostJiffies reads the host's cumulative CPU accounting from /proc/stat:
// jiffies the hypervisor stole from this guest, and all jiffies. Zeros where
// the file is missing or has no steal column.
func hostJiffies() (steal, total uint64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0
	}
	for i, f := range fields[1:] {
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return 0, 0
		}
		// user nice system idle iowait irq softirq steal; guest time is
		// already inside user.
		if i < 8 {
			total += v
		}
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

// stealLimit is the share of host CPU time the hypervisor may take from
// this guest during a measurement before the measurement is set aside. On
// the sizing host quiet seconds read 0–2 % and disturbed ones 25–45 %, with
// every latency several times its quiet value.
const stealLimit = 0.05

// stealMeter reads the stolen share of host CPU time since it was started.
type stealMeter struct{ steal, total uint64 }

func startStealMeter() stealMeter {
	s, t := hostJiffies()
	return stealMeter{s, t}
}

func (m stealMeter) frac() float64 {
	s, t := hostJiffies()
	return ratio(float64(s-m.steal), float64(t-m.total))
}

// keepQuiet picks the measurements taken while the host was quiet. When
// fewer than need of them were, the host was disturbed throughout: all are
// kept and noisy is true, so the run says so instead of hiding it.
func keepQuiet(steals []float64, need int) (keep []int, noisy bool) {
	for i, s := range steals {
		if s <= stealLimit {
			keep = append(keep, i)
		}
	}
	if len(keep) >= need {
		return keep, false
	}
	keep = keep[:0]
	for i := range steals {
		keep = append(keep, i)
	}
	return keep, true
}

// measured wraps one coded slice with the process-wide readings — CPU time
// and the allocator's counters — and the program's own counters, all taken
// outside the timed interval.
func measured(dep deployment, run func() sliceStats) round {
	var before, after runtime.MemStats
	c0 := dep.counters().tally()
	runtime.ReadMemStats(&before)
	cpu0 := cpuTime()
	s := run()
	s.cpu = cpuTime() - cpu0
	runtime.ReadMemStats(&after)
	s.mallocs = after.Mallocs - before.Mallocs
	s.allocBytes = after.TotalAlloc - before.TotalAlloc
	s.gcPauseNs = after.PauseTotalNs - before.PauseTotalNs
	s.heapInuse = after.HeapInuse
	return round{sliceStats: s, counters: dep.counters().tally().sub(c0)}
}

// round is one coded slice of the window with the float-baseline slice it
// was paired with.
type round struct {
	sliceStats
	// overhead is this round's float ÷ coded ratio.
	overhead float64
	// steal is the share of host CPU the hypervisor took during the round.
	steal float64
	// cpuSpeed and wallSpeed are the host's speeds at the end of the round,
	// as multiples of the nominal ones, measured the way the workload runs
	// (calibrate).
	cpuSpeed, wallSpeed float64
	// counters is what the program's own counters gained over the coded
	// slice.
	counters tally
}

// RunWorkload sets a workload up, measures it and checks its outputs. The
// returned error is for a run that could not be made at all; a failed
// correctness check is reported in Run.Correct and Run.Checks.
func RunWorkload(w *Workload, o Options) (*Run, error) {
	if o.Log == nil {
		o.Log = io.Discard
	}
	if o.Seconds < 1 {
		return nil, fmt.Errorf("seconds %d: want at least 1", o.Seconds)
	}
	tm := o.timing()
	runtime.GOMAXPROCS(Procs())
	run := &Run{Workload: w.Name, Seed: o.Seed, Seconds: o.Seconds, Trace: o.Trace, Correct: true,
		PerLayer: map[string]Value{}, Raw: map[string]Value{}}
	reqs := darknight.SyntheticDataset(requestSetSize, classes, imgC, imgH, imgW, o.Seed)

	dep, setupS, err := setUp(w, o, tm, reqs, run)
	if err != nil {
		return nil, fmt.Errorf("%s: set-up: %w", w.Name, err)
	}
	defer dep.close()

	var rec *Recorder
	var depth *depthSampler
	if o.Trace {
		rec = NewRecorder()
		if id, ok := dep.(*inferDep); ok {
			depth = startDepthSampler(id.queueDepth)
		}
	}
	schedBefore := schedLatencies()
	rounds := measure(w, o, tm, dep, rec)
	schedAfter := schedLatencies()
	depthMax := depth.stop()
	final := dep.counters()

	steals := make([]float64, len(rounds))
	for i, r := range rounds {
		steals[i] = r.steal
		fmt.Fprintf(o.Log, "%s: slice %d: %d rows in %.3f s, p50 %.3f ms, p90 %.3f ms, %.4f cpu ms/row, %d failed, %d refused, steal %.3f, host speed cpu %.3f wall %.3f\n",
			w.Name, i, r.rows, r.elapsed.Seconds(), Percentile(r.latMs, 0.50), Percentile(r.latMs, 0.90),
			ratio(float64(r.cpu)/float64(time.Millisecond), float64(r.rows)), r.failed, r.refused, r.steal, r.cpuSpeed, r.wallSpeed)
	}
	keep, noisy := keepQuiet(steals, (o.Seconds+1)/2)
	if noisy {
		run.Notes = append(run.Notes, fmt.Sprintf("host_noisy: the hypervisor stole more than %.0f %% of CPU in more than half of the %d slices; every slice is used",
			100*stealLimit, len(rounds)))
	}
	kept := make([]round, len(keep))
	for i, k := range keep {
		kept[i] = rounds[k]
	}
	run.Raw["slices.measured"] = Value{float64(len(rounds)), "count"}
	run.Raw["slices.used"] = Value{float64(len(kept)), "count"}
	run.Raw["host.steal_frac"] = Value{Median(steals), "frac"}
	cpuSpeeds, wallSpeeds := make([]float64, len(kept)), make([]float64, len(kept))
	for i, r := range kept {
		cpuSpeeds[i], wallSpeeds[i] = r.cpuSpeed, r.wallSpeed
	}
	run.Raw["host.cpu_speed"] = Value{Median(cpuSpeeds), "x"}
	run.Raw["host.wall_speed"] = Value{Median(wallSpeeds), "x"}

	agg := aggregate(kept, w.Kind == OpenLoop)
	match, compared, err := dep.classMatch(agg)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.Name, err)
	}
	run.Attempted, run.Failed = agg.attempted, agg.failed+agg.refused
	if run.Attempted < 1 {
		return nil, fmt.Errorf("%s: nothing was attempted in %d s", w.Name, o.Seconds)
	}

	e2e := map[string]Value{
		"setup_s":           {setupS, "s"},
		"rows_per_s":        {Median(agg.rate), "1/s"},
		"latency_p50_ms":    {SlicePercentile(agg.lat, 0.50, 1), "ms"},
		"latency_p90_ms":    {SlicePercentile(agg.lat, 0.90, 100), "ms"},
		"cpu_ms_per_row":    {Median(agg.cpuPerRow), "ms"},
		"coding_overhead_x": {Median(agg.overhead), "x"},
		"slo_met_frac":      {Median(agg.sloMet), "frac"},
		"ok_frac":           {1 - float64(run.Failed)/float64(agg.attempted), "frac"},
		"class_match_frac":  {ratio(float64(match), float64(compared)), "frac"},
	}
	all := agg.rawLat
	run.Raw["rows_per_s.window"] = Value{ratio(float64(agg.rows), agg.wall.Seconds()), "1/s"}
	run.Raw["latency_p50_ms.window"] = Value{Percentile(all, 0.50), "ms"}
	run.Raw["latency_p90_ms.window"] = Value{Percentile(all, 0.90), "ms"}
	run.Raw["latency.samples"] = Value{float64(len(all)), "count"}
	run.Raw["slo_met_frac.window"] = Value{1 - float64(agg.sloMiss)/float64(agg.attempted), "frac"}
	run.Raw["cpu_ms_per_row.window"] = Value{ratio(float64(agg.cpu)/float64(time.Millisecond), float64(agg.rows)), "ms"}

	classes := make([]string, 0, len(agg.errs))
	for c := range agg.errs {
		classes = append(classes, c)
	}
	sort.Strings(classes)
	for _, c := range classes {
		run.Notes = append(run.Notes, fmt.Sprintf("%d failed: %s", agg.errs[c], c))
	}

	// Correctness checks that fail the run.
	if v := e2e["class_match_frac"].Value; v < 0.99 && !o.Quick {
		run.fail("class_match_frac %.4f, want >= 0.99", v)
	}
	if w.Kind != OpenLoop && run.Failed != 0 {
		run.fail("%d of %d failed on a clean workload", run.Failed, run.Attempted)
	}

	counterMetrics(run.PerLayer, w, agg, final)
	runtimeMetrics(run.PerLayer, agg, schedBefore, schedAfter)
	generatorMetrics(run.PerLayer, w, agg)
	run.PerLayer["serve.queue_depth_max"] = Value{float64(depthMax), "count"}
	if v := run.PerLayer["loadgen.late_p99_ms"].Value; v > 1 {
		run.Notes = append(run.Notes, fmt.Sprintf("generator_unreliable: late_p99_ms %.3f > 1", v))
	}

	if !o.Trace {
		run.EndToEnd = e2e
		return run, nil
	}
	if err := runProbes(w, tm, rec, run.PerLayer); err != nil {
		return nil, fmt.Errorf("%s: probes: %w", w.Name, err)
	}
	spans, dropped := rec.Spans()
	run.SelfTimes = SelfTimes(spans)
	if dropped > 0 {
		run.Notes = append(run.Notes, fmt.Sprintf("%d spans dropped at the recorder's cap", dropped))
	}
	if o.OutDir != "" {
		run.SpanFile = filepath.Join(o.OutDir, w.Name+".spans.json")
		if err := writeSpans(run.SpanFile, w.Name, o.Seed, spans); err != nil {
			return nil, err
		}
	}
	return run, nil
}

// fail records a failed correctness check.
func (r *Run) fail(format string, args ...any) {
	r.Correct = false
	r.Checks = append(r.Checks, fmt.Sprintf(format, args...))
}

// setUp builds the deployment several times and returns the last one with
// setup_s, the median set-up time, restated at nominal host speed like the
// window's times. An inference set-up trains on zero-latency devices, so the
// CPU sets its pace whatever paces the window; a training set-up runs its
// pre-phase on the workload's own devices. A set-up during which the
// hypervisor stole CPU is repeated (at most once in all); the checks a
// set-up makes are reported from the first.
func setUp(w *Workload, o Options, tm timing, reqs []darknight.Example, run *Run) (deployment, float64, error) {
	pause := time.Duration(0)
	if w.Kind == Train {
		pause = w.pause()
	}
	if pause == 0 {
		// The sizing host runs two busy vCPUs at half speed for the first
		// half second or so after a quiet spell, and a set-up lasts no
		// longer than that: keep them busy first, so that every set-up and
		// the calibration after it see the host in one state.
		calibrate(5*tm.calib, 0)
	}
	var dep deployment
	var secs, measured, constructMs, steals []float64
	for quiet := 0; quiet < tm.setups && len(secs) < tm.setups+1; {
		if dep != nil {
			dep.close()
		}
		meter := startStealMeter()
		t0 := time.Now()
		var construct time.Duration
		var checks []string
		if w.Kind == Train {
			td, c, failed, err := setupTrain(w, reqs, tm.checkSteps)
			if err != nil {
				return nil, 0, err
			}
			dep, construct, checks = td, c, failed
		} else {
			id, c, err := setupInfer(w, o.Seed, reqs, tm.setupSteps)
			if err != nil {
				return nil, 0, err
			}
			dep, construct = id, c
			if acc := id.floatAccuracy(); acc < 0.95 {
				checks = append(checks, fmt.Sprintf("float accuracy on the request set %.4f, want >= 0.95", acc))
			}
		}
		if len(secs) == 0 && !o.Quick {
			for _, c := range checks {
				run.fail("%s", c)
			}
		}
		sec := time.Since(t0).Seconds()
		_, wall := calibrate(tm.calib, pause)
		secs, measured = append(secs, sec*wall), append(measured, sec)
		constructMs = append(constructMs, float64(construct)/float64(time.Millisecond))
		steals = append(steals, meter.frac())
		if steals[len(steals)-1] <= stealLimit {
			quiet++
		}
	}
	keep, _ := keepQuiet(steals, (tm.setups+1)/2)
	var s, m, c []float64
	for _, k := range keep {
		s, m, c = append(s, secs[k]), append(m, measured[k]), append(c, constructMs[k])
	}
	run.Raw["setup_s.measured"] = Value{Median(m), "s"}
	run.Raw["setup.construct_ms"] = Value{Median(c), "ms"}
	fmt.Fprintf(o.Log, "%s: set up %d× (median of %d quiet: %.3f s)\n", w.Name, len(secs), len(s), Median(s))
	return dep, Median(s), nil
}

// measure runs the window: coded slices paired with float-baseline slices,
// after one discarded warm-up of each. It wants o.Seconds quiet rounds, and
// when the hypervisor disturbs some it measures up to as many again.
func measure(w *Workload, o Options, tm timing, dep deployment, rec *Recorder) []round {
	idx := -1 // -1 = warm-up
	var cur round
	coded := func() float64 {
		rec.Enable(idx >= 0 && idx%2 == 1)
		cur = measured(dep, func() sliceStats { return dep.slice(idx, tm.slice, rec) })
		cur.traced = rec.Enabled()
		rec.Enable(false)
		return paired(w.CPUBound, cur.rows, cur.elapsed, cur.cpu)
	}
	float := func() float64 {
		cpu0 := cpuTime()
		rows, elapsed := dep.floatSlice(tm.float, w.pause())
		return paired(w.CPUBound, rows, elapsed, cpuTime()-cpu0)
	}
	coded()
	float()
	var rounds []round
	for quiet := 0; quiet < o.Seconds && len(rounds) < 2*o.Seconds; {
		idx = len(rounds)
		meter := startStealMeter()
		va, vb := Pair(idx, coded, float)
		cur.overhead = ratio(vb, va)
		cur.cpuSpeed, cur.wallSpeed = calibrate(tm.calib, w.pause())
		cur.steal = meter.frac()
		rounds = append(rounds, cur)
		if cur.steal <= stealLimit {
			quiet++
		}
	}
	return rounds
}

// paired is the value one side of the coding-overhead pair returns: rows per
// second on the CPU-bound workloads, rows per CPU second on the others, where
// a sleep or the generator, not the program's own work, sets the pace.
func paired(cpuBound bool, rows int64, elapsed, cpu time.Duration) float64 {
	if cpuBound {
		return ratio(float64(rows), elapsed.Seconds())
	}
	return ratio(float64(rows), cpu.Seconds())
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// window is the measured slices folded together.
type window struct {
	rate, cpuPerRow, overhead, sloMet                   []float64 // per slice
	counters                                            tally
	lateMs, rawLat                                      []float64
	lat                                                 [][]float64 // per slice
	rows, attempted, failed, refused, sloMiss, mismatch int64
	sent                                                int64
	wall, cpu                                           time.Duration
	mallocs, allocBytes, gcPauseNs, heapPeak            uint64
	tracedRate, untracedRate, tracedCPU, untracedCPU    []float64
	errs                                                map[string]int64 // failures by class
}

// aggregate folds the kept rounds together, each time restated at nominal
// host speed: CPU time × the round's CPU speed, latencies × its wall-clock
// speed, rates ÷ it — but for an open loop's completion rate, which the
// generator sets.
func aggregate(rounds []round, openLoop bool) window {
	var a window
	for _, s := range rounds {
		rate := ratio(float64(s.rows), s.elapsed.Seconds())
		if !openLoop {
			rate /= s.wallSpeed
		}
		cpr := ratio(float64(s.cpu)/float64(time.Millisecond), float64(s.rows)) * s.cpuSpeed
		lat := make([]float64, len(s.latMs))
		for i, l := range s.latMs {
			lat[i] = l * s.wallSpeed
		}
		a.rate = append(a.rate, rate)
		a.overhead = append(a.overhead, s.overhead)
		a.sloMet = append(a.sloMet, 1-ratio(float64(s.sloMiss), float64(s.attempted())))
		a.counters = a.counters.add(s.counters)
		a.lateMs = append(a.lateMs, s.lateMs...)
		a.cpuPerRow = append(a.cpuPerRow, cpr)
		a.lat = append(a.lat, lat)
		a.rawLat = append(a.rawLat, s.latMs...)
		a.rows += s.rows
		a.sent += s.sent
		a.attempted += s.attempted()
		a.failed += s.failed
		a.refused += s.refused
		a.sloMiss += s.sloMiss
		a.mismatch += s.mismatch
		for c, n := range s.errs {
			if a.errs == nil {
				a.errs = map[string]int64{}
			}
			a.errs[c] += n
		}
		a.wall += s.elapsed
		a.cpu += s.cpu
		a.mallocs += s.mallocs
		a.allocBytes += s.allocBytes
		a.gcPauseNs += s.gcPauseNs
		if s.heapInuse > a.heapPeak {
			a.heapPeak = s.heapInuse
		}
		if s.traced {
			a.tracedRate = append(a.tracedRate, rate)
			a.tracedCPU = append(a.tracedCPU, cpr)
		} else {
			a.untracedRate = append(a.untracedRate, rate)
			a.untracedCPU = append(a.untracedCPU, cpr)
		}
	}
	return a
}

// depthSampler reads the server's queue depth every 100 ms during a traced
// run. Reading it sorts the server's latency window under its lock, so the
// untraced run does without.
type depthSampler struct {
	stopCh chan struct{}
	wg     sync.WaitGroup
	max    int
}

func startDepthSampler(read func() int) *depthSampler {
	d := &depthSampler{stopCh: make(chan struct{})}
	d.wg.Add(1)
	go func() {
		defer d.wg.Done()
		tick := time.NewTicker(100 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-d.stopCh:
				return
			case <-tick.C:
				if q := read(); q > d.max {
					d.max = q
				}
			}
		}
	}()
	return d
}

// stop ends the sampler and returns the deepest queue it saw (0 on nil).
func (d *depthSampler) stop() int {
	if d == nil {
		return 0
	}
	close(d.stopCh)
	d.wg.Wait()
	return d.max
}

func schedLatencies() *metrics.Float64Histogram {
	s := []metrics.Sample{{Name: "/sched/latencies:seconds"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindFloat64Histogram {
		return nil
	}
	return s[0].Value.Float64Histogram()
}

// spanFile is the layout of a traced run's span dump.
type spanFile struct {
	Schema   int    `json:"schema"`
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Spans    []Span `json:"spans"`
}

func writeSpans(path, workload string, seed int64, spans []Span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(spanFile{Schema: SchemaVersion, Workload: workload, Seed: seed, Spans: spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
