package serve

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"darknight/internal/field"
	"darknight/internal/fleet"
	"darknight/internal/gpu"
	"darknight/internal/nn"
	"darknight/internal/resil"
	"darknight/internal/sched"
)

// TestExpiredContextNeverDispatched: a request whose deadline has already
// passed must fail promptly with context.DeadlineExceeded and never reach
// a gang.
func TestExpiredContextNeverDispatched(t *testing.T) {
	const k = 4
	fm := fleet.NewManager(gpu.NewHonestCluster(k+1), fleet.Config{})
	srv, err := New(Config{
		Sched:   sched.Config{VirtualBatch: k, Seed: 11},
		MaxWait: 500 * time.Millisecond,
	}, replicas(1, 11), fm, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	// The deadline is comfortably after admission but far before MaxWait:
	// the row is admitted, then expires waiting for K-1 peers. The batcher
	// flushes it at the deadline and the worker must prune, not dispatch.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err = srv.Infer(ctx, sampleImages(1, 12)[0])
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("expired request returned %v, want DeadlineExceeded", err)
	}
	if el := time.Since(start); el > 250*time.Millisecond {
		t.Errorf("expired request took %v, want prompt failure", el)
	}

	// The worker must prune the expired row instead of dispatching it.
	deadline := time.After(3 * time.Second)
	for srv.ResilCounters().Deadline.Load() == 0 {
		select {
		case <-deadline:
			t.Fatal("pruned-deadline counter never moved")
		default:
			time.Sleep(2 * time.Millisecond)
		}
	}
	if got := srv.Metrics().Completed; got != 0 {
		t.Errorf("expired request was dispatched and completed (%d)", got)
	}
}

// TestBudgetBoundsBatchWait: with a default deadline budget, a lone
// request must not sit out the full MaxWait — the batch phase gets only
// its budget share.
func TestBudgetBoundsBatchWait(t *testing.T) {
	const k = 4
	fm := fleet.NewManager(gpu.NewHonestCluster(k+1), fleet.Config{})
	srv, err := New(Config{
		Sched:   sched.Config{VirtualBatch: k, Seed: 13},
		MaxWait: 2 * time.Second,
		Resil:   resil.Config{Budget: resil.BudgetPolicy{Default: 100 * time.Millisecond}},
	}, replicas(1, 13), fm, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	start := time.Now()
	_, err = srv.Infer(context.Background(), sampleImages(1, 14)[0])
	el := time.Since(start)
	// Either the padded batch made it inside the budget or it was failed
	// with the typed deadline error — both honor the budget; waiting the
	// full 2s MaxWait does not.
	if err != nil && !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("budgeted request returned %v", err)
	}
	if el > time.Second {
		t.Errorf("budgeted request took %v, budget was 100ms", el)
	}
}

// TestShedTypedError: once the admission queue reaches the tenant's
// allowance, further requests fail fast with resil.ErrShed.
func TestShedTypedError(t *testing.T) {
	const k = 4
	fm := fleet.NewManager(gpu.NewHonestCluster(k+1), fleet.Config{})
	srv, err := New(Config{
		Sched:   sched.Config{VirtualBatch: k, Seed: 17},
		MaxWait: 400 * time.Millisecond,
		Resil:   resil.Config{Shed: resil.ShedPolicy{MaxQueue: 2}},
	}, replicas(1, 17), fm, nil)
	if err != nil {
		t.Fatal(err)
	}

	imgs := sampleImages(3, 18)
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// These park in the batcher waiting for peers; errors (none
			// expected) are irrelevant to the shed assertion.
			srv.Infer(context.Background(), imgs[i])
		}(i)
	}
	// Wait until both requests are visibly queued.
	deadline := time.After(3 * time.Second)
	for srv.Metrics().QueueDepth < 2 {
		select {
		case <-deadline:
			t.Fatal("queue depth never reached 2")
		default:
			time.Sleep(time.Millisecond)
		}
	}
	_, err = srv.Infer(context.Background(), imgs[2])
	if !errors.Is(err, resil.ErrShed) {
		t.Fatalf("overloaded request returned %v, want ErrShed", err)
	}
	if got := srv.ResilCounters().Shed.Load(); got != 1 {
		t.Errorf("shed counter = %d, want 1", got)
	}
	wg.Wait()
	srv.Close()
}

// tamperedFleet builds a manager over gang+spares honest devices with one
// always-tampering device, instant quarantine, no probation.
func tamperedFleet(gang, spares, bad int) *fleet.Manager {
	devs := make([]gpu.Device, gang+spares)
	for i := range devs {
		devs[i] = gpu.NewHonest(i)
		if i == bad {
			devs[i] = gpu.NewMalicious(devs[i], gpu.FaultPolicy{EveryNth: 1})
		}
	}
	return fleet.NewManager(gpu.NewCluster(devs...), fleet.Config{ProbationProbability: -1})
}

// TestRetryRecoversTamperedBatch: without Recover a tampered batch is a
// client-visible integrity error — unless retry re-dispatches it onto a
// fresh gang after the culprit is quarantined. At every pipeline depth the
// clients must see clean answers and the counters must show the retry.
func TestRetryRecoversTamperedBatch(t *testing.T) {
	const (
		k    = 2
		gang = k + 1 + 2 // M=1, E=2: exact attribution on the first batch
	)
	for _, c := range []struct {
		name                  string
		depth, spares, bad, n int
		seed                  int64
	}{
		{name: "depth1", depth: 1, spares: 2, bad: 1, n: 8, seed: 19},
		// Enough spares for two overlapped gangs.
		{name: "depth2", depth: 2, spares: gang + 2, bad: 2, n: 12, seed: 23},
	} {
		t.Run(c.name, func(t *testing.T) {
			fm := tamperedFleet(gang, c.spares, c.bad)
			srv, err := New(Config{
				Sched:         sched.Config{VirtualBatch: k, Redundancy: 2, Seed: c.seed},
				MaxWait:       time.Millisecond,
				PipelineDepth: c.depth,
				Resil:         resil.Config{Retry: resil.RetryPolicy{Max: 2}},
			}, replicas(1, c.seed), fm, nil)
			if err != nil {
				t.Fatal(err)
			}
			defer srv.Close()

			imgs := sampleImages(c.n, c.seed+1)
			ref := nn.TinyCNN(1, 8, 8, 4, rand.New(rand.NewSource(c.seed)))
			var wg sync.WaitGroup
			errs := make([]error, len(imgs))
			preds := make([]int, len(imgs))
			for i := range imgs {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					preds[i], errs[i] = srv.Infer(context.Background(), imgs[i])
				}(i)
			}
			wg.Wait()
			for i := range imgs {
				if errs[i] != nil {
					t.Fatalf("request %d failed despite retry: %v", i, errs[i])
				}
				if want := nn.Argmax(ref.Forward(imgs[i], false)); preds[i] != want {
					t.Errorf("request %d: retried answer %d, float %d", i, preds[i], want)
				}
			}

			rc := srv.ResilCounters()
			if rc.Retries.Load() == 0 || rc.RetrySuccess.Load() == 0 {
				t.Errorf("retry counters: retries=%d success=%d, want both > 0",
					rc.Retries.Load(), rc.RetrySuccess.Load())
			}
			if got := fm.Stats().Quarantined; got != 1 {
				t.Errorf("quarantined = %d, want 1", got)
			}
			if snap := srv.Metrics(); snap.Failed != 0 {
				t.Errorf("client-visible failures = %d, want 0", snap.Failed)
			}
		})
	}
}

// TestRetriesExhaustedKeepsIntegrityCause: when a tamperer defeats every
// retry, the terminal error says both things — the retry budget ran out,
// and tampered GPU results are why — so clients that test IsIntegrityError
// and the integrity counter both still see the attack.
func TestRetriesExhaustedKeepsIntegrityCause(t *testing.T) {
	const k = 2
	devs := make([]gpu.Device, k+2) // M = 1, E = 1, every device tampering
	for i := range devs {
		devs[i] = gpu.NewMalicious(gpu.NewHonest(i), gpu.FaultPolicy{EveryNth: 1})
	}
	fm := fleet.NewManager(gpu.NewCluster(devs...), fleet.Config{ProbationProbability: -1})
	srv, err := New(Config{
		Sched:   sched.Config{VirtualBatch: k, Redundancy: 1, Seed: 29},
		MaxWait: 5 * time.Second, // the two requests ride one batch
		Resil:   resil.Config{Retry: resil.RetryPolicy{Max: 1}},
	}, replicas(1, 29), fm, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	imgs := sampleImages(k, 30)
	errs := make([]error, len(imgs))
	var wg sync.WaitGroup
	for i := range imgs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = srv.Infer(context.Background(), imgs[i])
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if !errors.Is(err, resil.ErrRetriesExhausted) || !IsIntegrityError(err) {
			t.Errorf("request %d: %v; want ErrRetriesExhausted wrapping an integrity violation", i, err)
		}
		if resil.Retryable(err) {
			t.Errorf("request %d: terminal error %v reads as retryable", i, err)
		}
	}
	snap := srv.Metrics()
	if snap.Failed != 2 || snap.Integrity != 2 || snap.Resil.Retries != 1 || snap.Resil.RetriesExhausted != 1 {
		t.Errorf("failed=%d integrity=%d retries=%d exhausted=%d, want 2/2/1/1",
			snap.Failed, snap.Integrity, snap.Resil.Retries, snap.Resil.RetriesExhausted)
	}
}

// gatedDevice holds every forward job until its gate closes: a flight the
// test lands when it chooses to.
type gatedDevice struct {
	gpu.Device
	gate <-chan struct{}
}

func (d gatedDevice) LinearForward(kernel gpu.LinearKernel, x field.Vec) field.Vec {
	<-d.gate
	return d.Device.LinearForward(kernel, x)
}

// TestRetryWaitsForGang is the regression test for a retry that finds no
// gang: one depth-2 worker over exactly two gangs of devices. Batch A
// fails on a tampering device, which attribution quarantines, while batch
// B is still in flight — so the fleet cannot form a gang for A's retry
// until B retires. A has retry budget left and no deadline: it must wait
// for B and then be answered cleanly, not be failed with the raw integrity
// error.
func TestRetryWaitsForGang(t *testing.T) {
	const (
		k    = 2
		gang = k + 1 + 2
		bad  = 1
	)
	// A fresh fleet grants devices in index order: A flies on 0..4 (the
	// tamperer among them), B on 5..9. Each gang lands when its gate closes.
	gateA, gateB := make(chan struct{}), make(chan struct{})
	devs := make([]gpu.Device, 2*gang)
	for i := range devs {
		devs[i] = gpu.NewHonest(i)
		if i == bad {
			devs[i] = gpu.NewMalicious(devs[i], gpu.FaultPolicy{EveryNth: 1})
		}
		gate := gateA
		if i >= gang {
			gate = gateB
		}
		devs[i] = gatedDevice{Device: devs[i], gate: gate}
	}
	fm := fleet.NewManager(gpu.NewCluster(devs...), fleet.Config{ProbationProbability: -1})
	srv, err := New(Config{
		Sched:         sched.Config{VirtualBatch: k, Redundancy: 2, Seed: 43},
		MaxWait:       time.Second, // batches flush full, never padded
		PipelineDepth: 2,
		Resil:         resil.Config{Retry: resil.RetryPolicy{Max: 1}},
	}, replicas(1, 43), fm, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	imgs := sampleImages(2*k, 44)
	errs := make([]error, len(imgs))
	preds := make([]int, len(imgs))
	var wg sync.WaitGroup
	infer := func(i int) {
		defer wg.Done()
		preds[i], errs[i] = srv.Infer(context.Background(), imgs[i])
	}
	leased := func() (n int) {
		for _, d := range fm.Stats().Devices {
			if d.Leased {
				n++
			}
		}
		return n
	}
	await := func(what string, cond func() bool) {
		t.Helper()
		for by := time.Now().Add(5 * time.Second); !cond(); time.Sleep(time.Millisecond) {
			if time.Now().After(by) {
				t.Fatalf("timed out waiting for %s", what)
			}
		}
	}
	wg.Add(2 * k)
	go infer(0)
	go infer(1)
	await("batch A in flight", func() bool { return leased() == gang })
	go infer(2)
	go infer(3)
	await("batch B in flight", func() bool { return leased() == 2*gang })

	rc := srv.ResilCounters()
	close(gateA) // A lands tampered; its culprit is quarantined; B still flies
	await("A's retry to be scheduled", func() bool {
		return rc.Retries.Load() == 1 || srv.Metrics().Failed > 0
	})
	close(gateB) // B lands and retires: a gang can form again
	wg.Wait()

	ref := nn.TinyCNN(1, 8, 8, 4, rand.New(rand.NewSource(43)))
	for i := range imgs {
		if errs[i] != nil {
			t.Fatalf("request %d: %v (retry budget was left; the batch had to wait for a gang)", i, errs[i])
		}
		if want := nn.Argmax(ref.Forward(imgs[i], false)); preds[i] != want {
			t.Errorf("request %d: %d, float %d", i, preds[i], want)
		}
	}
	if got := rc.RetrySuccess.Load(); got != 1 {
		t.Errorf("retry successes = %d, want 1", got)
	}
	if got := fm.Stats().Quarantined; got != 1 {
		t.Errorf("quarantined = %d, want 1", got)
	}
}

// hedgeTrap stalls the first device job started after it is armed until
// the server has launched a hedge. The flight that job belongs to cannot
// land before then, so a warmed, aggressive hedge policy must duplicate it
// — whichever gang the fleet picked, and however fast the honest devices
// are. (Without the trap, a zero-latency landing usually beats a 1 ns hedge
// trigger in the worker's select, and a run can finish without hedging.)
type hedgeTrap struct {
	armed atomic.Bool
	gate  chan struct{}
}

// release closes the gate once rc has counted a hedge (or at the deadline,
// so a broken policy fails the test's assertions instead of hanging it).
func (h *hedgeTrap) release(rc *resil.Counters, by time.Time) {
	defer close(h.gate)
	for rc.Hedges.Load() == 0 && time.Now().Before(by) {
		time.Sleep(100 * time.Microsecond)
	}
}

type trappedDevice struct {
	gpu.Device
	trap *hedgeTrap
}

func (d trappedDevice) LinearForward(kernel gpu.LinearKernel, x field.Vec) field.Vec {
	if d.trap.armed.CompareAndSwap(true, false) {
		<-d.trap.gate
	}
	return d.Device.LinearForward(kernel, x)
}

// TestHedgeBitIdentityNoLeaks forces aggressive hedging, on serial and on
// overlapped workers, and checks the three hedging invariants: every answer
// is bit-identical to the float reference (cross-verification never
// trips), the counters reconcile, and neither gang leases nor goroutines
// leak once the load drains.
func TestHedgeBitIdentityNoLeaks(t *testing.T) {
	const (
		k        = 2
		gangSize = k + 1
		requests = 48
		clients  = 4
		// warmup is the governor's warm-up: the hedge policy engages once
		// 16 primaries have landed.
		warmup = 16
	)
	for _, depth := range []int{1, 2} {
		t.Run(fmt.Sprintf("depth%d", depth), func(t *testing.T) {
			baseline := runtime.NumGoroutine()

			// A gang per admitted batch plus one for the hedge.
			gangs := depth + 1
			trap := &hedgeTrap{gate: make(chan struct{})}
			devs := make([]gpu.Device, gangs*gangSize)
			for i := range devs {
				devs[i] = trappedDevice{Device: gpu.NewHonest(i), trap: trap}
			}
			fm := fleet.NewManager(gpu.NewCluster(devs...), fleet.Config{})
			srv, err := New(Config{
				Sched:         sched.Config{VirtualBatch: k, Seed: 29},
				MaxWait:       time.Millisecond,
				PipelineDepth: depth,
				Resil: resil.Config{Hedge: resil.HedgePolicy{
					Enabled: true, Quantile: 0.01,
				}},
			}, replicas(1, 29), fm, nil)
			if err != nil {
				t.Fatal(err)
			}

			imgs := sampleImages(requests, 30)
			preds := make([]int, requests)
			// The first warmup requests, one at a time, warm the hedge
			// governor; only then is the trap armed, so the next flight to
			// reach a device is held until a hedge has been launched.
			for i := 0; i < warmup; i++ {
				if preds[i], err = srv.Infer(context.Background(), imgs[i]); err != nil {
					t.Fatalf("warm-up request %d: %v", i, err)
				}
			}
			trap.armed.Store(true)
			go trap.release(srv.ResilCounters(), time.Now().Add(10*time.Second))
			var wg sync.WaitGroup
			for c := 0; c < clients; c++ {
				wg.Add(1)
				go func(c int) {
					defer wg.Done()
					for i := warmup + c; i < requests; i += clients {
						var err error
						if preds[i], err = srv.Infer(context.Background(), imgs[i]); err != nil {
							t.Errorf("hedged request %d: %v", i, err)
							return
						}
					}
				}(c)
			}
			wg.Wait()
			ref := nn.TinyCNN(1, 8, 8, 4, rand.New(rand.NewSource(29)))
			for i, img := range imgs {
				if want := nn.Argmax(ref.Forward(img, false)); preds[i] != want {
					t.Errorf("hedged request %d: %d, float %d", i, preds[i], want)
				}
			}

			// The client is answered before the losing flight settles, so wait for
			// the worker to finish classifying the final hedge before asserting.
			rc := srv.ResilCounters()
			settleBy := time.After(5 * time.Second)
			for rc.HedgeWins.Load()+rc.HedgeLosses.Load() != rc.Hedges.Load() {
				select {
				case <-settleBy:
					t.Fatalf("hedge accounting never settled: %d hedges, %d wins + %d losses",
						rc.Hedges.Load(), rc.HedgeWins.Load(), rc.HedgeLosses.Load())
				default:
					time.Sleep(time.Millisecond)
				}
			}
			if rc.Hedges.Load() == 0 {
				t.Fatal("aggressive hedge policy never hedged")
			}
			if rc.HedgeMismatch.Load() != 0 {
				t.Fatalf("hedge cross-verification tripped %d times on an honest fleet",
					rc.HedgeMismatch.Load())
			}

			// No leaked leases: once the flights settle, every full gang must be
			// acquirable (brief retry: the last settle releases just after the
			// counters move).
			var grants []*fleet.Grant
			leaseBy := time.After(5 * time.Second)
			for len(grants) < gangs {
				g, err := fm.TryAcquire("leakcheck", gangSize)
				if err != nil {
					t.Fatalf("gang acquisition failed: %v", err)
				}
				if g != nil {
					grants = append(grants, g)
					continue
				}
				select {
				case <-leaseBy:
					t.Fatalf("only %d of %d gangs acquirable after drain — leaked lease", len(grants), gangs)
				default:
					time.Sleep(time.Millisecond)
				}
			}
			for _, g := range grants {
				g.Release()
			}

			// No leaked goroutines: after Close the count returns to the baseline
			// (slack for runtime helpers and test plumbing).
			srv.Close()
			deadline := time.After(5 * time.Second)
			for {
				if runtime.NumGoroutine() <= baseline+5 {
					break
				}
				select {
				case <-deadline:
					t.Fatalf("goroutines leaked: %d now vs %d baseline", runtime.NumGoroutine(), baseline)
				default:
					time.Sleep(10 * time.Millisecond)
				}
			}
		})
	}
}

// TestBrownoutActuators drives the level transitions directly and checks
// each actuator: flush window, shed factor, hedge gate, pipeline depth.
func TestBrownoutActuators(t *testing.T) {
	const k = 2
	fm := fleet.NewManager(gpu.NewHonestCluster(2*(k+1)), fleet.Config{})
	srv, err := New(Config{
		Sched:         sched.Config{VirtualBatch: k, Seed: 31},
		MaxWait:       100 * time.Millisecond,
		PipelineDepth: 4,
		Resil: resil.Config{
			Shed: resil.ShedPolicy{MaxQueue: 8},
		},
	}, replicas(1, 31), fm, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	if got := srv.effMaxWait(); got != 100*time.Millisecond {
		t.Fatalf("clean effMaxWait = %v", got)
	}
	srv.applyBrownout(1)
	if got := srv.effMaxWait(); got != 50*time.Millisecond {
		t.Errorf("level-1 effMaxWait = %v, want 50ms", got)
	}
	srv.applyBrownout(3)
	if got := srv.effMaxWait(); got != 25*time.Millisecond {
		t.Errorf("level-3 effMaxWait = %v, want 25ms", got)
	}
	if got := srv.depthLimit.Load(); got != 1 {
		t.Errorf("level-3 depth limit = %d, want 1", got)
	}
	srv.applyBrownout(0)
	if got := srv.effMaxWait(); got != 100*time.Millisecond {
		t.Errorf("restored effMaxWait = %v", got)
	}
	if got := srv.depthLimit.Load(); got != 0 {
		t.Errorf("restored depth limit = %d", got)
	}
}

// TestResilConfigRejections: invalid resilience configurations fail at
// construction, not at serving time.
func TestResilConfigRejections(t *testing.T) {
	const k = 2
	mk := func(cfg Config) error {
		fm := fleet.NewManager(gpu.NewHonestCluster(2*(k+1)), fleet.Config{})
		cfg.Sched = sched.Config{VirtualBatch: k, Seed: 37}
		srv, err := New(cfg, replicas(1, 37), fm, nil)
		if err == nil {
			srv.Close()
		}
		return err
	}
	if err := mk(Config{
		Resil: resil.Config{Brownout: resil.BrownoutPolicy{Enabled: true}},
	}); err == nil {
		t.Error("brownout without SLO objectives was accepted")
	}
}
