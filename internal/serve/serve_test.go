package serve

import (
	"context"
	"math/rand"
	"sync"
	"testing"
	"time"

	"darknight/internal/dataset"
	"darknight/internal/fleet"
	"darknight/internal/gpu"
	"darknight/internal/nn"
	"darknight/internal/sched"
)

// replicas builds n weight-identical TinyCNN models (one per worker).
func replicas(n int, seed int64) []*nn.Model {
	out := make([]*nn.Model, n)
	for i := range out {
		out[i] = nn.TinyCNN(1, 8, 8, 4, rand.New(rand.NewSource(seed)))
	}
	return out
}

func sampleImages(n int, seed int64) [][]float64 {
	d := dataset.SyntheticCIFAR(rand.New(rand.NewSource(seed)), n, 4, 1, 8, 8, 0.05)
	imgs := make([][]float64, n)
	for i := range imgs {
		imgs[i] = d.Items[i].Image
	}
	return imgs
}

func TestServeCoalescesAndMatchesFloat(t *testing.T) {
	const (
		k        = 4
		workers  = 2
		requests = 64
	)
	models := replicas(workers, 7)
	fm := fleet.NewManager(gpu.NewHonestCluster(workers*(k+1)), fleet.Config{}) // two full gangs
	srv, err := New(Config{
		Sched:   sched.Config{VirtualBatch: k, Seed: 7},
		MaxWait: 100 * time.Millisecond,
	}, models, fm, nil)
	if err != nil {
		t.Fatal(err)
	}

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
	srv.Close()

	ref := nn.TinyCNN(1, 8, 8, 4, rand.New(rand.NewSource(7)))
	for i, img := range imgs {
		if want := nn.Argmax(ref.Forward(img, false)); preds[i] != want {
			t.Errorf("image %d: served %d, float %d", i, preds[i], want)
		}
	}

	snap := srv.Metrics()
	if snap.Completed != requests || snap.Failed != 0 {
		t.Fatalf("completed %d failed %d, want %d/0", snap.Completed, snap.Failed, requests)
	}
	if snap.RealRows != requests {
		t.Fatalf("real rows %d, want %d", snap.RealRows, requests)
	}
	// 64 concurrent requests against K=4 batching must coalesce: far fewer
	// batches than requests, well-filled on average.
	if snap.Batches >= requests {
		t.Fatalf("no coalescing: %d batches for %d requests", snap.Batches, requests)
	}
	if snap.Occupancy < 0.5 {
		t.Fatalf("mean batch occupancy %.2f, want >= 0.5 under saturating load", snap.Occupancy)
	}
	if snap.Throughput <= 0 || snap.P50 <= 0 || snap.P99 < snap.P50 {
		t.Fatalf("implausible latency/throughput snapshot: %+v", snap)
	}
}

func TestDeadlineExpiryPadsPartialBatch(t *testing.T) {
	const k = 4
	models := replicas(1, 11)
	fm := fleet.NewManager(gpu.NewHonestCluster(k+1), fleet.Config{})
	srv, err := New(Config{
		Sched:   sched.Config{VirtualBatch: k, Seed: 11},
		MaxWait: 5 * time.Millisecond,
	}, models, fm, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	// A single request with no peers: only the deadline flush (with 3
	// uniform-noise dummy rows) can ever complete it.
	img := sampleImages(1, 12)[0]
	p, err := srv.Infer(context.Background(), img)
	if err != nil {
		t.Fatal(err)
	}
	ref := nn.TinyCNN(1, 8, 8, 4, rand.New(rand.NewSource(11)))
	if want := nn.Argmax(ref.Forward(img, false)); p != want {
		t.Fatalf("padded-batch prediction %d, float %d", p, want)
	}
	snap := srv.Metrics()
	if snap.Batches != 1 || snap.PaddedRows != k-1 || snap.RealRows != 1 {
		t.Fatalf("batches=%d padded=%d real=%d, want 1/%d/1",
			snap.Batches, snap.PaddedRows, snap.RealRows, k-1)
	}
}

func TestGangLeaseContention(t *testing.T) {
	// Three workers contend for a cluster holding exactly ONE gang: leases
	// serialize the dispatches, and nothing deadlocks or leaks devices.
	const (
		k        = 2
		gang     = k + 1 // M = 1, E = 0
		workers  = 3
		requests = 30
	)
	models := replicas(workers, 21)
	fm := fleet.NewManager(gpu.NewHonestCluster(gang), fleet.Config{})
	srv, err := New(Config{
		Sched:   sched.Config{VirtualBatch: k, Seed: 21},
		MaxWait: time.Millisecond,
	}, models, fm, nil)
	if err != nil {
		t.Fatal(err)
	}

	imgs := sampleImages(requests, 22)
	var wg sync.WaitGroup
	for i := range imgs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, err := srv.Infer(context.Background(), imgs[i]); err != nil {
				t.Errorf("request %d: %v", i, err)
			}
		}(i)
	}
	wg.Wait()
	srv.Close()

	for _, d := range fm.Stats().Devices {
		if d.Leased {
			t.Fatalf("leaked device %d still leased after drain", d.ID)
		}
	}
	if snap := srv.Metrics(); snap.Completed != requests {
		t.Fatalf("completed %d, want %d", snap.Completed, requests)
	}
}

func TestMaliciousGPUSurfacesAsRequestError(t *testing.T) {
	// One always-tampering device inside the only gang: with E=1 the
	// redundant decoding catches it and every rider of the poisoned batch
	// gets an integrity error.
	const k = 2
	devs := []gpu.Device{
		gpu.NewHonest(0),
		gpu.NewMalicious(gpu.NewHonest(1), gpu.FaultPolicy{EveryNth: 1}),
		gpu.NewHonest(2),
		gpu.NewHonest(3),
	}
	fm := fleet.NewManager(gpu.NewCluster(devs...), fleet.Config{})
	srv, err := New(Config{
		Sched:   sched.Config{VirtualBatch: k, Redundancy: 1, Seed: 31},
		MaxWait: time.Millisecond,
	}, replicas(1, 31), fm, nil)
	if err != nil {
		t.Fatal(err)
	}

	imgs := sampleImages(8, 32)
	var wg sync.WaitGroup
	for i := range imgs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, err := srv.Infer(context.Background(), imgs[i])
			if err == nil {
				t.Errorf("request %d: tampering went undetected", i)
			} else if !IsIntegrityError(err) {
				t.Errorf("request %d: error %v does not wrap ErrIntegrity", i, err)
			}
		}(i)
	}
	wg.Wait()
	srv.Close()

	snap := srv.Metrics()
	if snap.Failed != int64(len(imgs)) || snap.Integrity != int64(len(imgs)) {
		t.Fatalf("failed=%d integrity=%d, want %d/%d",
			snap.Failed, snap.Integrity, len(imgs), len(imgs))
	}
}

func TestWorkerCodingSeedsDiffer(t *testing.T) {
	// Workers must not share an RNG stream: identical seeds would emit
	// identical masking noise for different clients' batches.
	fm := fleet.NewManager(gpu.NewHonestCluster(9), fleet.Config{})
	srv, err := New(Config{
		Sched:   sched.Config{VirtualBatch: 2, Seed: 71},
		MaxWait: time.Millisecond,
	}, replicas(3, 71), fm, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	seen := map[int64]bool{}
	for _, w := range srv.pipes {
		seed := w.Config().Seed
		if seen[seed] {
			t.Fatalf("two workers share coding seed %d", seed)
		}
		seen[seed] = true
	}
}

func TestInferValidation(t *testing.T) {
	const k = 2
	fm := fleet.NewManager(gpu.NewHonestCluster(k+1), fleet.Config{})
	srv, err := New(Config{
		Sched:   sched.Config{VirtualBatch: k, Seed: 41},
		MaxWait: time.Millisecond,
	}, replicas(1, 41), fm, nil)
	if err != nil {
		t.Fatal(err)
	}

	if _, err := srv.Infer(context.Background(), make([]float64, 5)); err == nil {
		t.Fatal("wrong-size image accepted")
	}

	// A canceled context aborts the wait.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := srv.Infer(ctx, make([]float64, 64)); err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}

	srv.Close()
	srv.Close() // idempotent
	if _, err := srv.Infer(context.Background(), make([]float64, 64)); err != ErrClosed {
		t.Fatalf("err = %v, want ErrClosed", err)
	}
}

func TestCloseDrainsAdmittedRequests(t *testing.T) {
	// Requests sitting in the queue when Close lands are flushed (padded),
	// not dropped.
	const k = 4
	fm := fleet.NewManager(gpu.NewHonestCluster(k+1), fleet.Config{})
	srv, err := New(Config{
		Sched:   sched.Config{VirtualBatch: k, Seed: 51},
		MaxWait: time.Hour, // only Close can flush the partial batch
	}, replicas(1, 51), fm, nil)
	if err != nil {
		t.Fatal(err)
	}

	img := sampleImages(1, 52)[0]
	done := make(chan error, 1)
	go func() {
		_, err := srv.Infer(context.Background(), img)
		done <- err
	}()
	// Wait until the request is admitted, then close.
	for srv.Metrics().QueueDepth == 0 {
		time.Sleep(time.Millisecond)
	}
	srv.Close()
	if err := <-done; err != nil {
		t.Fatalf("drained request failed: %v", err)
	}
}
