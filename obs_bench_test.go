package darknight

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// obsServeThroughput drives n closed-loop requests through a pipelined
// K=4 server carrying the given observability configuration and returns
// requests/second — the BenchmarkServing harness with the obs knob
// exposed.
func obsServeThroughput(tb testing.TB, oc ObservabilityConfig, clients, n int) float64 {
	tb.Helper()
	srv, err := NewServer(func() *Model { return TinyCNN(1, 8, 8, 4, 1) }, ServerConfig{
		Config:        Config{VirtualBatch: 4, Seed: 1, EnclaveBytes: -1},
		Workers:       1,
		MaxWait:       5 * time.Millisecond,
		Observability: oc,
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
	return float64(n) / time.Since(start).Seconds()
}

// BenchmarkTracingOverhead measures serving throughput across the
// observability operating points: stack absent (the pre-observability
// hot path — nil spans everywhere), stack attached with tracing disabled
// (the production scrape-only configuration), and 1%/100% sampling. The
// disabled-path delta is the number the ≤1% overhead budget in ISSUE/
// DESIGN refers to; BENCH_PR6.json records it.
func BenchmarkTracingOverhead(b *testing.B) {
	modes := []struct {
		name string
		oc   ObservabilityConfig
	}{
		{"disabled", ObservabilityConfig{}},
		{"attached-unsampled", ObservabilityConfig{Enabled: true}},
		{"sampled-1pct", ObservabilityConfig{TraceSample: 0.01}},
		{"sampled-100pct", ObservabilityConfig{TraceSample: 1}},
	}
	for _, mode := range modes {
		b.Run(mode.name, func(b *testing.B) {
			var tp float64
			for i := 0; i < b.N; i++ {
				tp = obsServeThroughput(b, mode.oc, 16, 192)
			}
			b.ReportMetric(tp, "req/s")
		})
	}
}
