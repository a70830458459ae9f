package darknight

// Fleet-layer benchmarks for PR3: what the self-healing fleet manager
// costs on the grant hot path and what straggler-tolerant quorum decoding
// buys when a device in the gang is slow. Measured numbers are recorded in BENCH_PR3.json and the
// straggler win is enforced (with slack for timer noise) by
// TestStragglerToleranceSpeedup.

import (
	"context"
	"testing"
	"time"

	"darknight/internal/fleet"
	"darknight/internal/gpu"
)

// BenchmarkFleet/acquire-fleet: one grant+release cycle of a 6-device gang
// from a 12-device pool — the price of health bookkeeping, fair-share
// arbitration and EWMA-sorted device selection.
func BenchmarkFleet(b *testing.B) {
	const (
		pool = 12
		gang = 6
	)
	b.Run("acquire-fleet", func(b *testing.B) {
		m := fleet.NewManager(gpu.NewHonestCluster(pool), fleet.Config{})
		ctx := context.Background()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			g, err := m.Acquire(ctx, "bench", gang)
			if err != nil {
				b.Fatal(err)
			}
			g.Release()
		}
	})
}

// stragglerThroughput serves n requests through a gang that contains one
// deterministically slow device (no spares: the fleet cannot route around
// it, only the quorum decode can) and returns requests/second.
func stragglerThroughput(tb testing.TB, slack, clients, n int, delay time.Duration) float64 {
	tb.Helper()
	srv, err := NewServer(func() *Model { return TinyCNN(1, 8, 8, 4, 1) }, ServerConfig{
		Config: Config{
			VirtualBatch: 2,
			Redundancy:   2, // E=2: one equation for verification, one of slack
			Seed:         1,
			EnclaveBytes: -1,
			SlowGPUs:     []int{4},
			SlowDelay:    delay,
		},
		Workers:        1,
		MaxWait:        time.Millisecond,
		StragglerSlack: slack,
	})
	if err != nil {
		tb.Fatal(err)
	}
	defer srv.Close()
	data := SyntheticDataset(n, 4, 1, 8, 8, 2)

	done := make(chan struct{}, clients)
	start := time.Now()
	for c := 0; c < clients; c++ {
		go func(c int) {
			for i := c; i < n; i += clients {
				if _, err := srv.Infer(context.Background(), data[i].Image); err != nil {
					tb.Errorf("request %d: %v", i, err)
				}
			}
			done <- struct{}{}
		}(c)
	}
	for c := 0; c < clients; c++ {
		<-done
	}
	return float64(n) / time.Since(start).Seconds()
}

// BenchmarkStragglerTolerance measures serving throughput with one slow
// device welded into the gang: waiting for every response (slack 0)
// against decoding from the first S+1 responses (slack 1). The MDS
// property means the slack path pays no accuracy: the decode is
// bit-for-bit the full decode.
func BenchmarkStragglerTolerance(b *testing.B) {
	const delay = 2 * time.Millisecond
	var waitAll, quorum float64
	for i := 0; i < b.N; i++ {
		waitAll = stragglerThroughput(b, 0, 4, 24, delay)
		quorum = stragglerThroughput(b, 1, 4, 24, delay)
	}
	b.ReportMetric(waitAll, "wait-all-req/s")
	b.ReportMetric(quorum, "quorum-req/s")
	b.ReportMetric(quorum/waitAll, "tolerance-x")
}
