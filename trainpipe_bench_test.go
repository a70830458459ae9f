package darknight

// PR5 benchmarks: what overlapped data-parallel training buys when a
// dispatch costs real device time. A synthetic per-dispatch latency is
// welded into every device (gpu.NewSlow), so the serial trainer pays it
// once per forward AND backward offload while the pipelined trainer hides
// one virtual batch's flights behind its neighbors' TEE work. Weights are
// pinned bit-identical separately (sched.TestTrainPipelineMatchesSerial);
// the win is enforced by TestTrainPipelineSpeedup and recorded in
// BENCH_PR5.json.

import (
	"math/rand"
	"testing"
	"time"

	"darknight/internal/dataset"
	"darknight/internal/gpu"
	"darknight/internal/nn"
	"darknight/internal/sched"
)

// trainThroughput trains one large batch of numVB K=2 virtual batches on a
// gang whose every device carries `delay` per-dispatch latency and returns
// virtual batches per second: a TrainPipeline with that many lanes over the
// shared gang, depth 1 being the serial runtime.
func trainThroughput(tb testing.TB, depth, numVB int, delay time.Duration) (float64, sched.PhaseStats) {
	tb.Helper()
	cfg := sched.Config{VirtualBatch: 2, Seed: 1}
	const gang = 3 // K + M = 2 + 1, E = 0
	devs := make([]gpu.Device, gang)
	for i := range devs {
		devs[i] = gpu.NewSlow(gpu.NewHonest(i), delay)
	}
	cluster := gpu.NewCluster(devs...)
	model := nn.TinyCNN(1, 8, 8, 4, rand.New(rand.NewSource(1)))
	batch := dataset.SyntheticCIFAR(rand.New(rand.NewSource(2)), numVB*cfg.VirtualBatch, 4, 1, 8, 8, 0.05).Items
	opt := nn.NewSGD(0.05, 0.9)

	pipe, err := sched.NewTrainPipeline(cfg, model, nil, depth)
	if err != nil {
		tb.Fatal(err)
	}
	defer pipe.Close()
	start := time.Now()
	if _, _, err := pipe.TrainLargeBatch(sched.SingleFleetSource{F: cluster}, batch, opt, 0); err != nil {
		tb.Fatal(err)
	}
	return float64(numVB) / time.Since(start).Seconds(), pipe.PhaseStats()
}

// BenchmarkTrainPipeline measures serial vs pipelined TrainLargeBatch on
// identical slow gangs (1ms per-dispatch device latency) and reports the
// training overlap ratio and noise-pool hit rate.
func BenchmarkTrainPipeline(b *testing.B) {
	const delay = time.Millisecond
	var serial, piped float64
	var ph sched.PhaseStats
	for i := 0; i < b.N; i++ {
		serial, _ = trainThroughput(b, 1, 12, delay)
		piped, ph = trainThroughput(b, 2, 12, delay)
	}
	b.ReportMetric(serial, "serial-vb/s")
	b.ReportMetric(piped, "pipelined-vb/s")
	b.ReportMetric(piped/serial, "trainpipe-x")
	b.ReportMetric(ph.Overlap(), "overlap-ratio")
}
