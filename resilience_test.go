package darknight

import (
	"context"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// chaosOutcome tallies one load run's client-visible results by class.
type chaosOutcome struct {
	OK, Integrity, Deadline, Shed, Other int64
	lastOther                            atomic.Value
}

func (o *chaosOutcome) classify(err error) {
	switch {
	case err == nil:
		atomic.AddInt64(&o.OK, 1)
	case IsShed(err):
		atomic.AddInt64(&o.Shed, 1)
	case IsDeadline(err):
		atomic.AddInt64(&o.Deadline, 1)
	case IsIntegrityError(err):
		atomic.AddInt64(&o.Integrity, 1)
	default:
		atomic.AddInt64(&o.Other, 1)
		o.lastOther.Store(err.Error())
	}
}

// driveChaosLoad runs `clients` sequential-loop clients against srv for d.
func driveChaosLoad(srv *Server, images []Example, clients int, d time.Duration) *chaosOutcome {
	out := &chaosOutcome{}
	var wg sync.WaitGroup
	stop := time.Now().Add(d)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; time.Now().Before(stop); i += clients {
				_, err := srv.Infer(context.Background(), images[i%len(images)].Image)
				out.classify(err)
			}
		}(c)
	}
	wg.Wait()
	return out
}

// TestChaosSchedulesZeroUnexplainedErrors is the chaos acceptance suite:
// every canned fault schedule (device crashes, latency spikes, tamper
// bursts, flapping, partitions) is played in real time against a serving
// stack with recovery and retry enabled, and every client must see either
// a clean answer or a typed resilience outcome — never an unexplained
// error. Quarantine, recovery decode and fresh-gang retry together absorb
// the injected faults.
func TestChaosSchedulesZeroUnexplainedErrors(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join("testdata", "chaos", "*.json"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no canned chaos schedules: %v", err)
	}
	images := SyntheticDataset(32, 4, 1, 8, 8, 41)

	for _, path := range paths {
		name := strings.TrimSuffix(filepath.Base(path), ".json")
		t.Run(name, func(t *testing.T) {
			sched, err := LoadChaosSchedule(path)
			if err != nil {
				t.Fatal(err)
			}
			srv, err := NewServer(func() *Model { return TinyCNN(1, 8, 8, 4, 41) }, ServerConfig{
				Config: Config{
					VirtualBatch: 2,
					Redundancy:   2, // E=2: attribute the culprit on the first bad batch
					Seed:         41,
					EnclaveBytes: -1,
					Chaos:        true,
				},
				Workers:    2,
				SpareGPUs:  4, // quarantine headroom: the pool survives losing devices
				MaxWait:    time.Millisecond,
				Recover:    true,
				Resilience: ResilienceConfig{RetryMax: 3},
			})
			if err != nil {
				t.Fatal(err)
			}
			defer srv.Close()

			stopChaos, err := srv.StartChaos(sched)
			if err != nil {
				t.Fatal(err)
			}
			runFor := sched.Duration() + 300*time.Millisecond
			if runFor < 500*time.Millisecond {
				runFor = 500 * time.Millisecond
			}
			out := driveChaosLoad(srv, images, 4, runFor)
			stopChaos()

			if out.OK == 0 {
				t.Fatalf("no request succeeded under schedule %q", name)
			}
			if out.Other != 0 {
				t.Fatalf("schedule %q: %d unexplained client errors (last: %v); ok=%d integrity=%d",
					name, out.Other, out.lastOther.Load(), out.OK, out.Integrity)
			}
			// With Recover + retry the injected faults must be absorbed
			// before the client sees them.
			if out.Integrity != 0 {
				t.Fatalf("schedule %q: %d client-visible integrity errors, want 0 (retries=%d)",
					name, out.Integrity, srv.ResilStats().Retries)
			}
			rs := srv.ResilStats()
			if len(sched.Events) > 0 && rs.ChaosActions == 0 {
				t.Fatalf("schedule %q played but no chaos actions were recorded", name)
			}
			t.Logf("%s: ok=%d retries=%d retry-success=%d chaos-actions=%d quarantined=%d",
				name, out.OK, rs.Retries, rs.RetrySuccess, rs.ChaosActions,
				srv.FleetStats().Quarantined)
		})
	}
}

// TestChaosTamperRetryWithoutRecovery re-runs the tamper schedule with
// recovery off: the poisoned batches are rejected outright, so only the
// retry path (fresh gang after quarantine) stands between the fault and
// the client. Clients must still see zero errors and the retry counters
// must move.
func TestChaosTamperRetryWithoutRecovery(t *testing.T) {
	sched, err := LoadChaosSchedule(filepath.Join("testdata", "chaos", "tamper.json"))
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(func() *Model { return TinyCNN(1, 8, 8, 4, 53) }, ServerConfig{
		Config: Config{
			VirtualBatch: 2,
			Redundancy:   2,
			Seed:         53,
			EnclaveBytes: -1,
			Chaos:        true,
		},
		Workers:    2,
		SpareGPUs:  4,
		MaxWait:    time.Millisecond,
		Resilience: ResilienceConfig{RetryMax: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	stop, err := srv.StartChaos(sched)
	if err != nil {
		t.Fatal(err)
	}
	out := driveChaosLoad(srv, SyntheticDataset(32, 4, 1, 8, 8, 54), 4,
		sched.Duration()+300*time.Millisecond)
	stop()

	if out.OK == 0 || out.Other != 0 || out.Integrity != 0 {
		t.Fatalf("retry-only run: ok=%d integrity=%d other=%d (last: %v), want clean",
			out.OK, out.Integrity, out.Other, out.lastOther.Load())
	}
	rs := srv.ResilStats()
	if rs.Retries == 0 || rs.RetrySuccess == 0 {
		t.Fatalf("tamper bursts with recovery off must exercise retry: %+v", rs)
	}
}

// TestBrownoutEngagesAndRestores closes the SLO loop end to end: a
// scripted latency storm pushes the tenant's burn rate over threshold, the
// brownout controller degrades (visible in the counters, the level gauge
// and the flight recorder), and once the storm passes and the window
// slides the controller restores full service — edge-triggered both ways.
func TestBrownoutEngagesAndRestores(t *testing.T) {
	const window = 300 * time.Millisecond
	srv, err := NewServer(func() *Model { return TinyCNN(1, 8, 8, 4, 43) }, ServerConfig{
		Config: Config{
			VirtualBatch: 2,
			Seed:         43,
			EnclaveBytes: -1,
			Chaos:        true,
		},
		Workers: 1,
		MaxWait: time.Millisecond,
		Observability: ObservabilityConfig{
			Enabled: true,
			SLO: SLOConfig{
				// The target sits between healthy latency (~1-2ms: the 1ms
				// flush window plus a sub-ms dispatch) and the storm
				// (12ms of injected delay per offload), so the burn rises
				// during the storm and actually falls once it passes.
				Objectives: []SLOObjective{{
					Tenant:        "*",
					LatencyTarget: 10 * time.Millisecond,
					LatencyGoal:   0.5,
				}},
				Windows: []time.Duration{window},
			},
		},
		Resilience: ResilienceConfig{Brownout: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	// Storm: every gang device gains 12ms per offload against a 10ms
	// end-to-end target.
	var events []ChaosEvent
	for dev := 0; dev < 3; dev++ {
		events = append(events, ChaosEvent{Kind: "latency", Device: dev, DelayMS: 12})
	}
	storm := &ChaosSchedule{Name: "latency-storm", Events: events}
	if err := srv.PlayChaos(context.Background(), storm); err != nil {
		t.Fatal(err)
	}

	images := SyntheticDataset(16, 4, 1, 8, 8, 44)
	infer := func(i int) {
		// Errors are irrelevant here; the SLO tracker observes them all.
		srv.Infer(context.Background(), images[i%len(images)].Image)
	}

	// Phase 1: drive slow traffic until the controller degrades.
	engaged := false
	for i := 0; i < 200 && !engaged; i++ {
		infer(i)
		engaged = srv.BrownoutLevel() > 0
	}
	if !engaged {
		t.Fatalf("brownout never engaged under a 5ms storm (burn rates: %+v)",
			srv.SLO().BurnRates())
	}

	// Phase 2: heal the fleet, keep serving clean traffic until the storm
	// slides out of the window and the controller restores.
	srv.ResetChaos()
	deadline := time.Now().Add(10 * time.Second)
	for i := 0; srv.BrownoutLevel() != 0; i++ {
		if time.Now().After(deadline) {
			t.Fatalf("brownout never restored: still level %d", srv.BrownoutLevel())
		}
		infer(i)
		time.Sleep(5 * time.Millisecond)
	}

	rs := srv.ResilStats()
	if rs.BrownoutShifts < 2 {
		t.Errorf("brownout shifts = %d, want >= 2 (degrade + restore)", rs.BrownoutShifts)
	}
	if rs.BrownoutLevel != 0 {
		t.Errorf("final brownout level gauge = %d, want 0", rs.BrownoutLevel)
	}
	var degraded, restored bool
	for _, ev := range srv.FlightRecorderDump() {
		if ev.Kind != "brownout" {
			continue
		}
		if strings.HasPrefix(ev.Detail, "degraded") {
			degraded = true
		}
		if strings.HasPrefix(ev.Detail, "restored") {
			restored = true
		}
	}
	if !degraded || !restored {
		t.Errorf("flight recorder transitions: degraded=%v restored=%v, want both", degraded, restored)
	}
}

// TestHedgeComposesWithPipeline: hedging is a policy on a flight, not a
// property of a worker mode — a hedged server at pipeline depth 2 builds,
// serves, and owns one model replica per worker (the hedge flies on a
// spare lane of the same replica, not on a second engine).
func TestHedgeComposesWithPipeline(t *testing.T) {
	const workers = 2
	var built atomic.Int64
	srv, err := NewServer(func() *Model {
		built.Add(1)
		return TinyCNN(1, 8, 8, 4, 53)
	}, ServerConfig{
		Config:        Config{VirtualBatch: 2, Seed: 53, EnclaveBytes: -1},
		SpareGPUs:     3,
		Workers:       workers,
		PipelineDepth: 2,
		MaxWait:       time.Millisecond,
		Resilience:    ResilienceConfig{HedgeQuantile: 0.95},
	})
	if err != nil {
		t.Fatalf("PipelineDepth 2 with HedgeQuantile 0.95 must build: %v", err)
	}
	defer srv.Close()
	if got := built.Load(); got != workers {
		t.Errorf("newModel called %d times, want %d (one replica per worker)", got, workers)
	}
	out := driveChaosLoad(srv, SyntheticDataset(16, 4, 1, 8, 8, 54), 4, 100*time.Millisecond)
	if out.OK == 0 || out.Integrity+out.Deadline+out.Shed+out.Other != 0 {
		t.Errorf("hedged pipelined serving: %+v", out)
	}
}
