package darknight

// PR9 benchmarks: what the resilience layer costs when nothing goes wrong.
// Deadline budgets, retry bookkeeping, hedge arming and admission control
// all sit on the hot path, so the clean-schedule throughput with the full
// stack enabled must stay within a few percent of the resilience-off
// baseline. Measured numbers are recorded in BENCH_PR9.json; the CI gate
// (TestResilienceOverheadGate) bounds the paired-median slowdown at 10% to
// stay meaningful under shared-runner noise, with the design budget at 5%.

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// resilGateRequests is the closed-loop run length of one overhead sample.
const resilGateRequests = 960

// fullResilience is the clean-path configuration under test: retries armed
// (never taken on a healthy fleet), hedging at a high percentile trigger,
// admission control with headroom, and a generous deadline budget.
func fullResilience() ResilienceConfig {
	return ResilienceConfig{
		Budget:        2 * time.Second,
		RetryMax:      2,
		HedgeQuantile: 0.99,
		ShedQueue:     4096,
	}
}

// resilServeThroughput drives n closed-loop requests through a one-worker
// K=4 server (hedging requires serial workers) with extra fleet headroom
// for hedge gangs, and returns requests/second.
func resilServeThroughput(tb testing.TB, rc ResilienceConfig, clients, n int) float64 {
	tb.Helper()
	srv, err := NewServer(func() *Model { return TinyCNN(1, 8, 8, 4, 1) }, ServerConfig{
		Config: Config{
			VirtualBatch: 4,
			Seed:         1,
			EnclaveBytes: -1,
		},
		SpareGPUs:  6,
		Workers:    1,
		MaxWait:    5 * time.Millisecond,
		Resilience: rc,
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

// BenchmarkResilientServing records both sides for the BENCH_PR9 artifact.
func BenchmarkResilientServing(b *testing.B) {
	var off, on float64
	for i := 0; i < b.N; i++ {
		off = resilServeThroughput(b, ResilienceConfig{}, 16, resilGateRequests)
		on = resilServeThroughput(b, fullResilience(), 16, resilGateRequests)
	}
	b.ReportMetric(off, "resil-off-req/s")
	b.ReportMetric(on, "resil-on-req/s")
	b.ReportMetric(on/off, "on-vs-off-x")
}
