package darknight

// PR4 benchmarks: what overlapped encode→dispatch→decode execution buys
// when a dispatch costs real device time. A synthetic per-dispatch latency
// is welded into every device (gpu.NewSlow) so the serial engine pays it
// once per offload while the pipelined engine hides one batch's flight
// behind its neighbors' TEE work. Measured numbers are recorded in
// BENCH_PR4.json; the win is enforced by TestPipelineSpeedup.

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// pipelinedServeThroughput drives n closed-loop requests through a
// one-worker K=4 server whose devices all carry `delay` per-dispatch
// latency, at the given pipeline depth (0 = serial engine), and returns
// requests/second plus the final metrics snapshot.
func pipelinedServeThroughput(tb testing.TB, depth, clients, n int, delay time.Duration) (float64, ServerMetrics) {
	tb.Helper()
	srv, err := NewServer(func() *Model { return TinyCNN(1, 8, 8, 4, 1) }, ServerConfig{
		Config: Config{
			VirtualBatch: 4,
			Seed:         1,
			EnclaveBytes: -1,
			SlowDelay:    delay,
		},
		Workers:       1,
		PipelineDepth: depth,
		MaxWait:       5 * time.Millisecond,
		SlowAll:       true,
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

// BenchmarkPipeline measures end-to-end pipelined serving against the
// serial engine on identical per-worker gangs with a 1ms synthetic device
// latency, and reports the overlap ratio and noise-pool hit rate the
// metrics expose.
func BenchmarkPipeline(b *testing.B) {
	const delay = time.Millisecond
	var serial, piped float64
	var m ServerMetrics
	for i := 0; i < b.N; i++ {
		serial, _ = pipelinedServeThroughput(b, 0, 16, 96, delay)
		piped, m = pipelinedServeThroughput(b, 2, 16, 96, delay)
	}
	b.ReportMetric(serial, "serial-req/s")
	b.ReportMetric(piped, "pipelined-req/s")
	b.ReportMetric(piped/serial, "pipeline-x")
	b.ReportMetric(m.Overlap, "overlap-ratio")
	b.ReportMetric(m.NoisePool.HitRate(), "pool-hit-rate")
}
