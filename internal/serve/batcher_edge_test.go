package serve

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"darknight/internal/fleet"
	"darknight/internal/gpu"
	"darknight/internal/sched"
)

// TestMaxWaitZeroFlushesSingletonBatches: MaxWait <= 0 means a request
// never waits for peers — every batch carries exactly one real row plus
// K-1 dummy rows (the unbatched baseline).
func TestMaxWaitZeroFlushesSingletonBatches(t *testing.T) {
	const (
		k        = 3
		requests = 5
	)
	fm := fleet.NewManager(gpu.NewHonestCluster(k+1), fleet.Config{})
	srv, err := New(Config{
		Sched:   sched.Config{VirtualBatch: k, Seed: 121},
		MaxWait: -time.Nanosecond,
	}, replicas(1, 121), fm, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	imgs := sampleImages(requests, 122)
	for i, img := range imgs {
		if _, err := srv.Infer(context.Background(), img); err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}
	snap := srv.Metrics()
	if snap.Batches != requests {
		t.Fatalf("batches = %d, want %d singletons", snap.Batches, requests)
	}
	if snap.PaddedRows != int64(requests*(k-1)) || snap.RealRows != requests {
		t.Fatalf("padded=%d real=%d, want %d/%d", snap.PaddedRows, snap.RealRows, requests*(k-1), requests)
	}
}

// TestExpiredContextAtAdmission: a request whose context is already past
// its deadline must resolve promptly — either rejected with the context
// error or (if it won the race into a batch) completed — and must not leak
// queue depth.
func TestExpiredContextAtAdmission(t *testing.T) {
	const k = 4
	fm := fleet.NewManager(gpu.NewHonestCluster(k+1), fleet.Config{})
	srv, err := New(Config{
		Sched:   sched.Config{VirtualBatch: k, Seed: 131},
		MaxWait: time.Hour, // only the request's own deadline can flush early
	}, replicas(1, 131), fm, nil)
	if err != nil {
		t.Fatal(err)
	}

	img := sampleImages(1, 132)[0]
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	done := make(chan error, 1)
	go func() {
		_, err := srv.Infer(ctx, img)
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil && !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("err = %v, want nil or DeadlineExceeded", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("expired-context request hung")
	}
	// An expired flushBy means the batcher (if the request got in) flushes
	// immediately; either way the queue gauge must return to zero.
	deadline := time.Now().Add(2 * time.Second)
	for srv.Metrics().QueueDepth != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("queue depth stuck at %d", srv.Metrics().QueueDepth)
		}
		time.Sleep(time.Millisecond)
	}
	// The server remains fully serviceable: a follow-up request is admitted
	// (MaxWait is an hour, so only the Close drain can flush it) and
	// completes when the server drains.
	follow := make(chan error, 1)
	go func() {
		_, err := srv.Infer(context.Background(), img)
		follow <- err
	}()
	deadline = time.Now().Add(5 * time.Second)
	for srv.Metrics().QueueDepth == 0 {
		if time.Now().After(deadline) {
			t.Fatal("follow-up request never admitted")
		}
		time.Sleep(time.Millisecond)
	}
	srv.Close()
	if err := <-follow; err != nil {
		t.Fatalf("follow-up request: %v", err)
	}
}

// TestQueueFullCancelledContext: with the worker wedged (its gang held
// externally), the pipeline backs up until the admission queue, 4·K deep,
// is full; a
// request arriving with a cancelled context must bail out with ctx.Err()
// without corrupting the queue gauge, and the backlog must drain cleanly
// once the gang frees up.
func TestQueueFullCancelledContext(t *testing.T) {
	const (
		k     = 2
		gang  = k + 1
		depth = 4 * k // the admission queue's capacity
	)
	fm := fleet.NewManager(gpu.NewHonestCluster(gang), fleet.Config{})
	srv, err := New(Config{
		Sched:   sched.Config{VirtualBatch: k, Seed: 141},
		MaxWait: time.Millisecond,
	}, replicas(1, 141), fm, nil)
	if err != nil {
		t.Fatal(err)
	}

	// Wedge the worker: hold the only gang so its Acquire blocks.
	hold, err := fm.Acquire(context.Background(), "external", gang)
	if err != nil {
		t.Fatal(err)
	}

	// Back the pipeline up: 1 batch stuck at the worker, 1 in the batch
	// channel, 1 blocking the batcher's send, then `depth` requests filling
	// the admission queue. 2 requests per batch (K=2, MaxWait pairs them).
	const backlog = 2*3 + depth
	imgs := sampleImages(backlog+1, 142)
	var wg sync.WaitGroup
	results := make([]error, backlog)
	for i := 0; i < backlog; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, err := srv.Infer(context.Background(), imgs[i])
			results[i] = err
		}(i)
	}
	// Wait until the admission queue is actually full.
	deadline := time.Now().Add(5 * time.Second)
	for srv.Metrics().QueueDepth < depth {
		if time.Now().After(deadline) {
			t.Fatalf("queue never filled: depth %d", srv.Metrics().QueueDepth)
		}
		time.Sleep(time.Millisecond)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := srv.Infer(ctx, imgs[backlog]); err != context.Canceled {
		t.Fatalf("queue-full cancelled request: err = %v, want context.Canceled", err)
	}

	// Free the gang: the whole backlog must drain.
	hold.Release()
	wg.Wait()
	for i, err := range results {
		if err != nil {
			t.Fatalf("backlogged request %d: %v", i, err)
		}
	}
	srv.Close()
	snap := srv.Metrics()
	if snap.Completed != backlog || snap.QueueDepth != 0 {
		t.Fatalf("completed=%d depth=%d, want %d/0", snap.Completed, snap.QueueDepth, backlog)
	}
}
