package serve

import (
	"context"
	"math/rand"
	"sync"
	"testing"
	"time"

	"darknight/internal/field"
	"darknight/internal/fleet"
	"darknight/internal/gpu"
	"darknight/internal/nn"
	"darknight/internal/sched"
)

// forwardGate holds every forward device job on a test-owned channel and
// reports the first arrival — the moment a worker has sealed a batch and
// put it in flight.
type forwardGate struct {
	gpu.Device
	first *sync.Once
	began chan<- struct{}
	gate  <-chan struct{}
}

func (d forwardGate) LinearForward(key string, kernel gpu.LinearKernel, x field.Vec) field.Vec {
	d.first.Do(func() { close(d.began) })
	<-d.gate
	return d.Device.LinearForward(key, kernel, x)
}

// waitFor polls cond until it holds, failing the test at the guard
// deadline. The poll observes an event; it never paces the test.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(50 * time.Microsecond)
	}
}

// TestContinuousBatchingAdmitsRiders drives a one-worker server whose
// batcher flushes immediately (negative MaxWait: every batch leaves the
// batcher padded) with continuous batching on, and checks that late
// requests ride a flushed padded batch in place of pad rows while every
// rider's answer still matches the float reference. The rider window is
// made by events, not timing: the first batch's device jobs are held on a
// gate, so the lone worker is busy; a second request is flushed into a
// padded batch that waits, unsealed, in the hand-off queue; only then do
// the remaining requests arrive, and the gate opens once K-1 of them have
// ridden that batch. The admission window closes at worker pickup; the
// -race CI run exercises the seal against concurrent admits.
func TestContinuousBatchingAdmitsRiders(t *testing.T) {
	const (
		k        = 4
		requests = 32
	)
	models := replicas(1, 19)
	began, gate := make(chan struct{}), make(chan struct{})
	var once sync.Once
	devs := make([]gpu.Device, k+1)
	for i := range devs {
		devs[i] = forwardGate{Device: gpu.NewHonest(i), first: &once, began: began, gate: gate}
	}
	fm := fleet.NewManager(gpu.NewCluster(devs...), fleet.Config{})
	srv, err := New(Config{
		Sched:      sched.Config{VirtualBatch: k, Seed: 19},
		MaxWait:    -time.Nanosecond,
		Continuous: true,
	}, models, fm, nil)
	if err != nil {
		t.Fatal(err)
	}

	imgs := sampleImages(requests, 20)
	preds := make([]int, requests)
	var wg sync.WaitGroup
	infer := func(i int) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p, err := srv.Infer(context.Background(), imgs[i])
			if err != nil {
				t.Errorf("request %d: %v", i, err)
				return
			}
			preds[i] = p
		}()
	}
	// Request 0 is flushed alone and picked up: the worker is now busy.
	infer(0)
	select {
	case <-began:
	case <-time.After(10 * time.Second):
		t.Fatal("first batch never reached the devices")
	}
	// Request 1 is flushed into a padded batch that queues, unsealed,
	// behind the busy worker.
	infer(1)
	waitFor(t, "the padded batch to queue behind the worker", func() bool { return len(srv.batches) == 1 })
	for i := 2; i < requests; i++ {
		infer(i)
	}
	waitFor(t, "late requests to ride the padded batch", func() bool {
		return srv.Metrics().ContinuousAdmits >= k-1
	})
	close(gate)
	wg.Wait()
	snap := srv.Metrics()
	srv.Close()

	ref := nn.TinyCNN(1, 8, 8, 4, rand.New(rand.NewSource(19)))
	for i, img := range imgs {
		if want := nn.Argmax(ref.Forward(img, false)); preds[i] != want {
			t.Errorf("image %d: served %d, float %d", i, preds[i], want)
		}
	}
	if snap.Completed != requests || snap.Failed != 0 {
		t.Fatalf("completed %d failed %d, want %d/0", snap.Completed, snap.Failed, requests)
	}
	if snap.ContinuousAdmits == 0 {
		t.Fatalf("no continuous admissions under saturating immediate-flush load: %+v", snap)
	}
}

// TestContinuousDisabledNeverAdmits pins the default: with Continuous off,
// the same immediate-flush workload completes with zero rider admissions —
// every batch serves exactly its flush row.
func TestContinuousDisabledNeverAdmits(t *testing.T) {
	const k = 4
	models := replicas(1, 23)
	fm := fleet.NewManager(gpu.NewHonestCluster(k+1), fleet.Config{})
	srv, err := New(Config{
		Sched:   sched.Config{VirtualBatch: k, Seed: 23},
		MaxWait: -time.Nanosecond,
	}, models, fm, nil)
	if err != nil {
		t.Fatal(err)
	}
	imgs := sampleImages(8, 24)
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
	snap := srv.Metrics()
	srv.Close()
	if snap.ContinuousAdmits != 0 {
		t.Fatalf("%d continuous admissions with Continuous off", snap.ContinuousAdmits)
	}
}
