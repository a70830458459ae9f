package darknight

// PR7 benchmarks: what fused-block gang flights buy when a dispatch costs
// real device time. DeepMLP's 7 bilinear layers fuse into 3 flights (two
// 3-layer blocks + the lone head), and a block flight's persistent device
// trips pay the per-dispatch launch latency once per block instead of once
// per layer — so with gpu.NewSlow devices the per-layer path pays 7 delay
// units per forward where the fused path pays 3. Bit-identity of the fused
// outputs is pinned separately (sched.TestFusedBlockMatchesPerLayer,
// sched.TestFusedFlightCount); the win is enforced by
// TestFusedOffloadSpeedup and recorded per GOMAXPROCS in BENCH_PR7.json.

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// fusedServeThroughput drives n closed-loop requests through a one-worker
// K=4 DeepMLP server whose devices all carry `delay` per-dispatch latency,
// with or without fused offload + continuous batching, and returns
// requests/second plus the final metrics snapshot.
func fusedServeThroughput(tb testing.TB, fuse bool, n, clients int, delay time.Duration) (float64, ServerMetrics) {
	tb.Helper()
	srv, err := NewServer(func() *Model { return DeepMLP(1, 8, 8, 4, 16, 1) }, ServerConfig{
		Config: Config{
			VirtualBatch: 4,
			Seed:         1,
			EnclaveBytes: -1,
			SlowDelay:    delay,
		},
		Workers:    1,
		MaxWait:    5 * time.Millisecond,
		SlowAll:    true,
		Fuse:       fuse,
		Continuous: fuse,
	})
	if err != nil {
		tb.Fatal(err)
	}
	defer srv.Close()
	data := SyntheticDataset(n, 4, 1, 8, 8, 2)

	var next atomic.Int64
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				if _, err := srv.Infer(context.Background(), data[i].Image); err != nil {
					tb.Errorf("request %d: %v", i, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start).Seconds()
	return float64(n) / elapsed, srv.Metrics()
}

// BenchmarkFusedServing measures end-to-end serving of the fusion-friendly
// DeepMLP with fused offload + continuous batching against the per-layer
// PR6-shaped baseline, on identical gangs with a 1ms synthetic device
// latency. Reported extras: the flight amortization (layers per flight)
// and the continuous-batching rider count.
func BenchmarkFusedServing(b *testing.B) {
	const delay = time.Millisecond
	var base, fused float64
	var m ServerMetrics
	for i := 0; i < b.N; i++ {
		base, _ = fusedServeThroughput(b, false, 96, 16, delay)
		fused, m = fusedServeThroughput(b, true, 96, 16, delay)
	}
	b.ReportMetric(base, "per-layer-req/s")
	b.ReportMetric(fused, "fused-req/s")
	b.ReportMetric(fused/base, "fused-x")
	if m.Phases.Flights > 0 {
		b.ReportMetric(float64(m.Phases.Offloads)/float64(m.Phases.Flights), "layers/flight")
	}
	b.ReportMetric(float64(m.ContinuousAdmits), "continuous-admits")
}
