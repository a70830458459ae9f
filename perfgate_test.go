//go:build perfgate

package darknight

// The wall-clock gates: every test in the tree whose verdict depends on
// measured throughput or latency. They are out of tier-1 (`go test ./...`
// never builds this file) because a ratio of two timings on a shared
// runner is noise at the margins the gates use; the bench-smoke, chaos,
// observability and replay CI jobs run them with `-tags perfgate`. What
// stays in tier-1 are the deterministic proxies of the same wins: flight
// and offload counts (sched.TestFusedFlightCount), allocations
// (TestSteadyStateAllocationRegression), bit-identity pins.

import (
	"context"
	"math/rand"
	"sort"
	"sync"
	"testing"
	"time"

	"darknight/internal/gpu"
	"darknight/internal/nn"
	"darknight/internal/sched"
)

// rotatingStragglerSchedule injects short latency bursts, one device at a
// time, hopping across the fleet. Each burst is much shorter than the
// period: it catches the flights dispatched onto that device in a narrow
// window and is over before the fleet's straggle-rate branding (which only
// lands when the slow flight is released) can route around it. That is the
// transient, unpredictable straggler that health-aware gang picking cannot
// defend against — and exactly what hedged dispatch exists for.
func rotatingStragglerSchedule(devices, bursts int, period, burst, delay time.Duration) *ChaosSchedule {
	s := &ChaosSchedule{Name: "rotating-straggler"}
	pms := period.Milliseconds()
	for i := 0; i < bursts; i++ {
		s.Events = append(s.Events, ChaosEvent{
			Kind:       "latency",
			Device:     i % devices,
			AtMS:       int64(i) * pms,
			DelayMS:    delay.Milliseconds(),
			DurationMS: burst.Milliseconds(),
		})
	}
	return s
}

// stragglerTail serves concurrent requests under the rotating-straggler
// schedule and returns the observed p99 latency plus the hedge count.
// Two workers with hedge headroom matter: a hedge answers its riders
// early but the worker still drains the losing 40ms flight before its
// next batch, so with a single worker the stall would simply shift onto
// the following request. A second worker absorbs traffic while the first
// drains — which is exactly how hedging is meant to be provisioned.
func stragglerTail(t *testing.T, hedge bool, depth int) (time.Duration, int64) {
	t.Helper()
	const clients = 4
	gpus := 2*depth*3 + 3 // a gang of 3 per worker lane, plus one spare gang for hedges
	cfg := ServerConfig{
		Config: Config{
			VirtualBatch: 2,
			GPUs:         gpus,
			Seed:         47,
			EnclaveBytes: -1,
			Chaos:        true,
		},
		Workers:       2,
		PipelineDepth: depth,
		MaxWait:       time.Millisecond,
	}
	if hedge {
		// Median trigger: with a twelfth of the fleet delayed at any
		// moment the slow fraction of primary flights can exceed 10%, so a
		// p90 trigger would learn the straggler latency itself. p50 stays
		// at the healthy latency and arms the hedge as soon as a flight
		// falls behind the typical batch.
		cfg.Resilience = ResilienceConfig{HedgeQuantile: 0.5}
	}
	srv, err := NewServer(func() *Model { return TinyCNN(1, 8, 8, 4, 47) }, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	// Short bursts (25ms of a 45ms period) strike flights after gang
	// selection and end before the release-time straggle branding can
	// steer leases away, so the unhedged tail stays slow no matter how
	// good the routing is. Only one device is delayed at a time, so the
	// free pool the hedge draws from is always healthy.
	sched := rotatingStragglerSchedule(gpus, 64, 45*time.Millisecond,
		25*time.Millisecond, 20*time.Millisecond)
	stop, err := srv.StartChaos(sched)
	if err != nil {
		t.Fatal(err)
	}
	defer stop()

	images := SyntheticDataset(32, 4, 1, 8, 8, 48)
	var mu sync.Mutex
	var lats []time.Duration
	var wg sync.WaitGroup
	end := time.Now().Add(sched.Duration())
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; time.Now().Before(end); i += clients {
				s := time.Now()
				if _, err := srv.Infer(context.Background(), images[i%len(images)].Image); err != nil {
					t.Errorf("request %d: %v", i, err)
					return
				}
				el := time.Since(s)
				mu.Lock()
				lats = append(lats, el)
				mu.Unlock()
				// Pace the load: an unthrottled loop would bury the burst
				// victims under tens of thousands of sub-millisecond
				// requests and push them past the 99th percentile.
				time.Sleep(3 * time.Millisecond)
			}
		}(c)
	}
	wg.Wait()
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	p99 := lats[len(lats)*99/100]
	slow := 0
	for _, l := range lats {
		if l > 10*time.Millisecond {
			slow++
		}
	}
	t.Logf("hedge=%v depth=%d: %d requests, %d over 10ms, p99 %v, %d hedges",
		hedge, depth, len(lats), slow, p99, srv.ResilStats().Hedges)
	return p99, srv.ResilStats().Hedges
}

// TestHedgeStragglerP99 is the hedging acceptance gate: under a rotating
// straggler schedule, hedged dispatch must improve p99 latency by at least
// 2x over the unhedged baseline, on serial and on overlapped workers
// (measured far higher; the gate is conservative for CI). Wall-clock
// sensitive, so skipped under the race detector and -short.
func TestHedgeStragglerP99(t *testing.T) {
	if raceEnabled || testing.Short() {
		t.Skip("timing-sensitive")
	}
	for _, depth := range []int{1, 2} {
		base, _ := stragglerTail(t, false, depth)
		hedged, hedges := stragglerTail(t, true, depth)
		if hedges == 0 {
			t.Fatalf("depth %d: hedged run never hedged", depth)
		}
		ratio := float64(base) / float64(hedged)
		t.Logf("depth %d: p99 unhedged %v, hedged %v (%.1fx, %d hedges)", depth, base, hedged, ratio, hedges)
		if ratio < 2 {
			t.Fatalf("depth %d: hedging improved p99 only %.2fx (unhedged %v, hedged %v), want >= 2x",
				depth, ratio, base, hedged)
		}
	}
}

// schedThroughput pushes `batches` K=2 virtual batches through the sched
// runtime on a gang whose every device carries `delay` per-dispatch
// latency, and returns batches/second from a Pipeline of that depth (1 =
// the serial runtime).
func schedThroughput(tb testing.TB, depth, batches int, delay time.Duration) float64 {
	tb.Helper()
	cfg := sched.Config{VirtualBatch: 2, Seed: 1}
	const gang = 3 // K + M = 2 + 1, E = 0
	devs := make([]gpu.Device, gang)
	for i := range devs {
		devs[i] = gpu.NewSlow(gpu.NewHonest(i), delay)
	}
	cluster := gpu.NewCluster(devs...)
	model := nn.TinyCNN(1, 8, 8, 4, rand.New(rand.NewSource(1)))
	rng := rand.New(rand.NewSource(2))
	imgs := make([][][]float64, batches)
	for b := range imgs {
		imgs[b] = make([][]float64, cfg.VirtualBatch)
		for i := range imgs[b] {
			img := make([]float64, 64)
			for j := range img {
				img[j] = rng.Float64()
			}
			imgs[b][i] = img
		}
	}

	pipe, err := sched.NewPipeline(cfg, model, nil, "", depth)
	if err != nil {
		tb.Fatal(err)
	}
	defer pipe.Close()
	start := time.Now()
	tickets := make([]*sched.Ticket, batches)
	for b, images := range imgs {
		tk, err := pipe.Submit(cluster, images)
		if err != nil {
			tb.Fatal(err)
		}
		tickets[b] = tk
	}
	for _, tk := range tickets {
		if err := tk.Wait(); err != nil {
			tb.Fatal(err)
		}
	}
	return float64(batches) / time.Since(start).Seconds()
}

// TestPipelineSpeedup enforces the tentpole win: with a synthetic 1ms
// per-dispatch device latency, the depth-2 pipeline must reach at least
// 1.5x the serial engine's throughput on the same gang (measured ~1.9x;
// the gate is conservative for noisy CI runners). Equivalence is pinned
// separately — sched.TestPipelineMatchesSerial shows the outputs are
// bit-identical, so this speedup is free of accuracy cost.
func TestPipelineSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-sensitive")
	}
	const delay = time.Millisecond
	best := 0.0
	for i := 0; i < 3 && best < 1.5; i++ {
		serial := schedThroughput(t, 1, 16, delay)
		piped := schedThroughput(t, 2, 16, delay)
		if x := piped / serial; x > best {
			best = x
		}
	}
	if best < 1.5 {
		t.Fatalf("pipeline speedup %.2fx, want >= 1.5x over the serial engine", best)
	}
	t.Logf("pipeline speedup %.2fx", best)
}

// TestStragglerToleranceSpeedup enforces the quorum win: with a 2ms
// straggler welded into every gang, decode-from-first-S+1 must be at least
// 2x the wait-for-all baseline (measured ~8-10x; the gate is conservative
// for noisy CI runners).
func TestStragglerToleranceSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-sensitive")
	}
	const delay = 2 * time.Millisecond
	best := 0.0
	for i := 0; i < 3 && best < 2; i++ {
		waitAll := stragglerThroughput(t, 0, 4, 24, delay)
		quorum := stragglerThroughput(t, 1, 4, 24, delay)
		if x := quorum / waitAll; x > best {
			best = x
		}
	}
	if best < 2 {
		t.Fatalf("straggler tolerance %.2fx, want >= 2x", best)
	}
}

// gateRequests sizes each overhead-gate measurement run. 192 requests
// finish in single-digit milliseconds and made the paired gates flake
// tens of percent either way on shared CI; ~1k requests keeps each run
// past the scheduler-noise floor while the whole gate stays under a
// second.
const gateRequests = 960

// pairedOverhead measures two serving configurations and returns the
// median of the per-round throughput ratios b/a (1.0 = no overhead,
// 0.9 = b ten percent slower). One unmeasured warm-up of each side runs
// first (frequency scaling and page-cache warm-up systematically favor
// whichever side runs later); each round then measures the pair
// back-to-back in order alternated between rounds, so slow machine
// phases hit both sides of a ratio and residual drift alternates sign
// instead of biasing one side. The median over rounds discards the
// outlier rounds a best-of cannot.
func pairedOverhead(t *testing.T, rounds int, a, b ObservabilityConfig) float64 {
	t.Helper()
	obsServeThroughput(t, a, 16, gateRequests)
	obsServeThroughput(t, b, 16, gateRequests)
	ratios := make([]float64, 0, rounds)
	for i := 0; i < rounds; i++ {
		var va, vb float64
		if i%2 == 0 {
			va = obsServeThroughput(t, a, 16, gateRequests)
			vb = obsServeThroughput(t, b, 16, gateRequests)
		} else {
			vb = obsServeThroughput(t, b, 16, gateRequests)
			va = obsServeThroughput(t, a, 16, gateRequests)
		}
		ratios = append(ratios, vb/va)
	}
	sort.Float64s(ratios)
	mid := len(ratios) / 2
	if len(ratios)%2 == 0 {
		return (ratios[mid-1] + ratios[mid]) / 2
	}
	return ratios[mid]
}

// TestTracingDisabledOverheadGate enforces the zero-overhead claim for
// the disabled path: attaching the observability stack with tracing off
// (the serving instruments run on both sides, the recorder only sees rare
// fleet events) must not measurably slow serving. The design budget is <= 1%;
// the test gate allows 10% because sub-second throughput runs on shared
// CI carry ±15% of scheduler noise — the median-of-paired-ratios
// protocol (pairedOverhead) keeps even that loose gate meaningful. The
// exact measured delta ships in BENCH_PR6.json via
// BenchmarkTracingOverhead.
func TestTracingDisabledOverheadGate(t *testing.T) {
	ratio := pairedOverhead(t, 9, ObservabilityConfig{}, ObservabilityConfig{Enabled: true})
	t.Logf("attached-unsampled vs obs absent: median paired throughput ratio %.3f (%.2f%% delta)", ratio, 100*(1-ratio))
	if ratio < 0.90 {
		t.Fatalf("attached-but-disabled observability costs %.1f%% throughput (median paired ratio %.3f)", 100*(1-ratio), ratio)
	}
}

// TestTrainPipelineSpeedup enforces the tentpole win: with a synthetic 1ms
// per-dispatch device latency, the depth-2 training pipeline must reach at
// least 1.4x the serial trainer's throughput on the same gang (measured
// ~1.9x; the gate is conservative for noisy CI runners). Training pays the
// latency on the backward dispatch too, so the hidden flight time per
// virtual batch is double the inference pipeline's.
func TestTrainPipelineSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-sensitive")
	}
	const delay = time.Millisecond
	best := 0.0
	for i := 0; i < 3 && best < 1.4; i++ {
		serial, _ := trainThroughput(t, 1, 12, delay)
		piped, _ := trainThroughput(t, 2, 12, delay)
		if x := piped / serial; x > best {
			best = x
		}
	}
	if best < 1.4 {
		t.Fatalf("train pipeline speedup %.2fx, want >= 1.4x over the serial trainer", best)
	}
	t.Logf("train pipeline speedup %.2fx", best)
}

// timeIt returns the best-of-three wall clock of n iterations of f.
func timeIt(n int, f func()) time.Duration {
	best := time.Duration(1<<62 - 1)
	for r := 0; r < 3; r++ {
		start := time.Now()
		for i := 0; i < n; i++ {
			f()
		}
		if d := time.Since(start); d < best {
			best = d
		}
	}
	return best
}

// TestCodedForwardSpeedup enforces the PR2 kernel win: the fused coded
// forward path (encode → dispatch kernel → decode) must beat the retained
// seed kernels by at least 2.5x. BenchmarkKernels reports the precise
// ratio; this gate uses best-of-three timing to shrug off scheduler noise.
func TestCodedForwardSpeedup(t *testing.T) {
	cb := newCodedBench(t)
	// Equivalence first: same code, same inputs — the fused path must
	// decode to the identical result (noise rows differ per draw, but the
	// decode cancels them exactly, so decoded outputs match bit-for-bit).
	want := cb.forwardRef(t)
	got := cb.forwardFused(t)
	for i := range want {
		if !got[i].Equal(want[i]) {
			t.Fatalf("fused coded forward diverges from reference at input %d", i)
		}
	}

	if raceEnabled {
		t.Skip("race instrumentation distorts kernel timing; the equivalence half ran, the speedup gate needs a plain build")
	}
	if testing.Short() {
		t.Skip("wall-clock speedup gate skipped in -short mode")
	}
	// Measured headroom is ~3.2x against the 2.5x gate; retry with longer
	// runs before failing so a loaded machine doesn't flake the suite.
	const minRatio = 2.5
	ratio := 0.0
	for attempt, iters := 0, 12; attempt < 3; attempt, iters = attempt+1, iters*2 {
		ref := timeIt(iters, func() { cb.forwardRef(t) })
		fused := timeIt(iters, func() { cb.forwardFused(t) })
		if r := float64(ref) / float64(fused); r > ratio {
			ratio = r
		}
		t.Logf("attempt %d (%d iters): ref %v, fused %v (%.2fx)", attempt+1, iters, ref, fused, ratio)
		if ratio >= minRatio {
			break
		}
	}
	if ratio < minRatio {
		t.Fatalf("fused coded forward path is only %.2fx faster than the seed kernels, want >= %.1fx", ratio, minRatio)
	}
}

// resilPairedRatio returns the median paired throughput ratio (resilience
// on / resilience off) over `rounds` back-to-back runs in alternating
// order, after one warm-up pass per side. Pairing cancels the machine's
// slow drift; the median discards outlier rounds.
func resilPairedRatio(t *testing.T, rounds int) float64 {
	t.Helper()
	off, on := ResilienceConfig{}, fullResilience()
	resilServeThroughput(t, off, 16, resilGateRequests)
	resilServeThroughput(t, on, 16, resilGateRequests)
	ratios := make([]float64, 0, rounds)
	for i := 0; i < rounds; i++ {
		var vOff, vOn float64
		if i%2 == 0 {
			vOff = resilServeThroughput(t, off, 16, resilGateRequests)
			vOn = resilServeThroughput(t, on, 16, resilGateRequests)
		} else {
			vOn = resilServeThroughput(t, on, 16, resilGateRequests)
			vOff = resilServeThroughput(t, off, 16, resilGateRequests)
		}
		ratios = append(ratios, vOn/vOff)
	}
	sort.Float64s(ratios)
	mid := len(ratios) / 2
	if len(ratios)%2 == 0 {
		return (ratios[mid-1] + ratios[mid]) / 2
	}
	return ratios[mid]
}

// TestResilienceOverheadGate bounds the clean-path cost of the full
// resilience stack: the paired-median throughput with budgets, retries,
// hedging and admission control enabled must stay within 10% of the
// resilience-off baseline (design budget 5%; the CI gate leaves room for
// shared-runner noise). The median runs over 25 pairs: over 9, its own
// spread reached the gate (1 of 30 readings at 0.887 around a median of
// 0.971 on a 2-vCPU host). Wall-clock sensitive, so skipped under the race
// detector and -short.
func TestResilienceOverheadGate(t *testing.T) {
	if raceEnabled || testing.Short() {
		t.Skip("timing-sensitive")
	}
	ratio := resilPairedRatio(t, 25)
	t.Logf("resilience-on vs resilience-off paired-median throughput ratio: %.3f", ratio)
	if ratio < 0.90 {
		t.Fatalf("resilience stack costs %.1f%% clean-path throughput, budget 10%%",
			100*(1-ratio))
	}
}
