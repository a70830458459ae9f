package serve

import (
	"context"
	"math/rand"
	"sync"
	"testing"
	"time"

	"darknight/internal/fleet"
	"darknight/internal/gpu"
	"darknight/internal/nn"
	"darknight/internal/sched"
)

// pipelinedServer stands up a PipelineDepth-2 server over `gangs` full
// gangs of devices (optionally all slowed by delay) and returns it with
// its fleet manager.
func pipelinedServer(t *testing.T, workers, k, e, gangs int, delay time.Duration, extra func(*Config)) *Server {
	t.Helper()
	gang := k + 1 + e
	devs := make([]gpu.Device, gangs*gang)
	for i := range devs {
		devs[i] = gpu.NewHonest(i)
		if delay > 0 {
			devs[i] = gpu.NewSlow(devs[i], delay)
		}
	}
	fm := fleet.NewManager(gpu.NewCluster(devs...), fleet.Config{})
	cfg := Config{
		Sched:         sched.Config{VirtualBatch: k, Redundancy: e, Seed: 7},
		MaxWait:       time.Millisecond,
		PipelineDepth: 2,
	}
	if extra != nil {
		extra(&cfg)
	}
	srv, err := New(cfg, replicas(workers, 7), fm, nil)
	if err != nil {
		t.Fatal(err)
	}
	return srv
}

// TestPipelinedServingMatchesFloat drives concurrent traffic through a
// pipelined server and checks every answer against the plaintext float
// reference — the serving-level restatement of the bit-identical
// equivalence the sched tests pin — plus the pipeline-specific metrics:
// busy wall-clock recorded, noise served from the precompute pool.
func TestPipelinedServingMatchesFloat(t *testing.T) {
	const (
		k        = 4
		requests = 64
	)
	srv := pipelinedServer(t, 2, k, 0, 4, 0, nil)
	imgs := sampleImages(requests, 8)
	preds := make([]int, requests)
	var wg sync.WaitGroup
	for i := range imgs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			p, err := srv.Infer(context.Background(), imgs[i])
			if err != nil {
				t.Errorf("request %d: %v", i, err)
				return
			}
			preds[i] = p
		}(i)
	}
	wg.Wait()
	snap := srv.Metrics()
	srv.Close()

	ref := nn.TinyCNN(1, 8, 8, 4, rand.New(rand.NewSource(7)))
	for i, img := range imgs {
		if want := nn.Argmax(ref.Forward(img, false)); preds[i] != want {
			t.Errorf("image %d: served %d, float %d", i, preds[i], want)
		}
	}
	if snap.Completed != requests || snap.Failed != 0 {
		t.Fatalf("completed %d failed %d, want %d/0", snap.Completed, snap.Failed, requests)
	}
	if snap.Phases.Wall == 0 {
		t.Fatalf("pipelined serving recorded no busy wall-clock: %+v", snap.Phases)
	}
	if snap.NoisePool.Hits == 0 {
		t.Fatalf("noise pool never hit: %+v", snap.NoisePool)
	}
	t.Logf("overlap %.2f, pool hit rate %.2f (%d hits / %d misses)",
		snap.Overlap, snap.NoisePool.HitRate(), snap.NoisePool.Hits, snap.NoisePool.Misses)
}

// TestPipelinedServingQuarantinesCulprit checks the fault-sensor duties
// survive the move to tickets: a persistently tampering device poisons a
// batch, the E=2 redundancy attributes it through the pipelined decode,
// recovery masks the fault from clients, and the fleet quarantines the
// culprit.
func TestPipelinedServingQuarantinesCulprit(t *testing.T) {
	const (
		k        = 2
		e        = 2
		requests = 48
	)
	gang := k + 1 + e
	devs := make([]gpu.Device, 2*gang)
	for i := range devs {
		devs[i] = gpu.NewHonest(i)
	}
	devs[1] = gpu.NewMalicious(devs[1], gpu.FaultPolicy{EveryNth: 1})
	fm := fleet.NewManager(gpu.NewCluster(devs...), fleet.Config{ProbationProbability: -1})
	srv, err := New(Config{
		Sched:         sched.Config{VirtualBatch: k, Redundancy: e, Seed: 7},
		MaxWait:       time.Millisecond,
		PipelineDepth: 2,
		Recover:       true,
	}, replicas(1, 7), fm, nil)
	if err != nil {
		t.Fatal(err)
	}
	imgs := sampleImages(requests, 9)
	var wg sync.WaitGroup
	var failed sync.Map
	for i := range imgs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, err := srv.Infer(context.Background(), imgs[i]); err != nil {
				failed.Store(i, err)
			}
		}(i)
	}
	wg.Wait()
	st := srv.fleet.Stats()
	srv.Close()

	failed.Range(func(key, value any) bool {
		t.Errorf("request %v failed despite recovery: %v", key, value)
		return true
	})
	if st.Quarantined == 0 {
		t.Fatalf("tampering device never quarantined: %+v", st)
	}
	for _, d := range st.Devices {
		if d.ID == 1 && d.State.String() != "quarantined" {
			t.Fatalf("device 1 is %s, want quarantined", d.State)
		}
	}
}

// TestPipelinedServingOverlapsUnderLatency welds per-dispatch device
// latency into every gang and checks the pipelined server actually
// overlaps: with depth 2 and two gangs per worker, the measured overlap
// ratio must clear 1 (phase time accumulated faster than the wall moved).
func TestPipelinedServingOverlapsUnderLatency(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-sensitive")
	}
	const (
		k        = 2
		requests = 32
	)
	srv := pipelinedServer(t, 1, k, 0, 2, time.Millisecond, func(c *Config) {
		c.MaxWait = 500 * time.Microsecond
	})
	imgs := sampleImages(requests, 10)
	var wg sync.WaitGroup
	for c := 0; c < 8; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; i < requests; i += 8 {
				if _, err := srv.Infer(context.Background(), imgs[i]); err != nil {
					t.Errorf("request %d: %v", i, err)
				}
			}
		}(c)
	}
	wg.Wait()
	snap := srv.Metrics()
	srv.Close()
	if snap.Overlap <= 1.0 {
		t.Fatalf("overlap ratio %.2f, want > 1 with 1ms device latency and depth 2", snap.Overlap)
	}
	t.Logf("overlap ratio %.2f over %d offloads (dispatch %v of wall %v)",
		snap.Overlap, snap.Phases.Offloads, snap.Phases.Dispatch, snap.Phases.Wall)
}
