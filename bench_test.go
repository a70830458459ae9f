package darknight

// One benchmark per paper artifact. Each bench regenerates its table or
// figure through the experiment library and reports the headline numbers
// as benchmark metrics, so `go test -bench=. -benchmem` reproduces the
// whole evaluation. EXPERIMENTS.md records paper-vs-measured per artifact.

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"darknight/internal/experiments"
)

// BenchmarkTable1 regenerates the per-op GPU-over-SGX speedups (VGG16).
func BenchmarkTable1(b *testing.B) {
	var rows []experiments.Table1Row
	for i := 0; i < b.N; i++ {
		rows = experiments.Table1()
	}
	b.ReportMetric(rows[0].Linear, "fwd-linear-x")
	b.ReportMetric(rows[1].Linear, "bwd-linear-x")
	b.ReportMetric(rows[0].Total, "fwd-total-x")
	b.ReportMetric(rows[1].Total, "bwd-total-x")
}

// BenchmarkTable2 regenerates the qualitative capability matrix.
func BenchmarkTable2(b *testing.B) {
	var rows []experiments.Table2Row
	for i := 0; i < b.N; i++ {
		rows = experiments.Table2()
	}
	b.ReportMetric(float64(len(rows)), "methods")
}

// BenchmarkTable3 regenerates the training-time breakdown fractions.
func BenchmarkTable3(b *testing.B) {
	var rows []experiments.Table3Row
	for i := 0; i < b.N; i++ {
		rows = experiments.Table3()
	}
	for _, r := range rows {
		b.ReportMetric(r.DarKnight.NonLinear, r.Model+"-dk-nonlinear")
		b.ReportMetric(r.Baseline.Linear, r.Model+"-base-linear")
	}
}

// BenchmarkTable4 regenerates the non-private 3-GPU speedups.
func BenchmarkTable4(b *testing.B) {
	var rows []experiments.Table4Row
	for i := 0; i < b.N; i++ {
		rows = experiments.Table4()
	}
	for _, r := range rows {
		b.ReportMetric(r.OverDarKnight, r.Model+"-over-dk-x")
		b.ReportMetric(r.OverSGXOnly, r.Model+"-over-sgx-x")
	}
}

// BenchmarkFigure3 regenerates the aggregation speedup curve.
func BenchmarkFigure3(b *testing.B) {
	var rows []experiments.Figure3Row
	for i := 0; i < b.N; i++ {
		rows = experiments.Figure3()
	}
	for _, r := range rows {
		b.ReportMetric(r.Speedups[4], r.Model+"-K4-x")
	}
}

// BenchmarkFigure4 runs the raw-vs-DarKnight training accuracy experiment
// (reduced scale; see DESIGN.md for the substitution).
func BenchmarkFigure4(b *testing.B) {
	var series []experiments.Figure4Series
	for i := 0; i < b.N; i++ {
		var err error
		series, err = experiments.Figure4(experiments.QuickFigure4Config())
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, s := range series {
		b.ReportMetric(s.FinalGap, s.Model+"-acc-gap")
	}
}

// BenchmarkFigure5 regenerates the training speedups (pipelined and not).
func BenchmarkFigure5(b *testing.B) {
	var rows []experiments.Figure5Row
	for i := 0; i < b.N; i++ {
		rows = experiments.Figure5()
	}
	for _, r := range rows {
		b.ReportMetric(r.NonPipelined, r.Model+"-x")
		b.ReportMetric(r.Pipelined, r.Model+"-pipe-x")
	}
}

// BenchmarkFigure6a regenerates the inference comparison.
func BenchmarkFigure6a(b *testing.B) {
	var rows []experiments.Figure6aRow
	for i := 0; i < b.N; i++ {
		rows = experiments.Figure6a()
	}
	for _, r := range rows {
		b.ReportMetric(r.DarKnight4, r.Model+"-dk4-x")
		b.ReportMetric(r.Slalom, r.Model+"-slalom-x")
	}
}

// BenchmarkFigure6b regenerates the virtual-batch-size scan.
func BenchmarkFigure6b(b *testing.B) {
	var rows []experiments.Figure6bRow
	for i := 0; i < b.N; i++ {
		rows = experiments.Figure6b()
	}
	for _, r := range rows {
		if r.K == 4 || r.K == 6 {
			b.ReportMetric(r.Total, "K"+string(rune('0'+r.K))+"-total-x")
		}
	}
}

// BenchmarkFigure7 regenerates the SGX multithreading latency curve.
func BenchmarkFigure7(b *testing.B) {
	var rows []experiments.Figure7Row
	for i := 0; i < b.N; i++ {
		rows = experiments.Figure7()
	}
	b.ReportMetric(rows[len(rows)-1].Latency, "4-thread-latency-x")
}

// serveThroughput drives n closed-loop requests through a one-worker K=4
// server at the given client concurrency and returns requests/second.
// maxWait < 0 flushes every batch immediately (one real row + K-1 dummy
// rows per dispatch — the sequential one-request-at-a-time baseline);
// with concurrent clients and a positive maxWait the batcher coalesces
// real rows into full batches on the same gang of devices.
func serveThroughput(tb testing.TB, clients, n int, maxWait time.Duration) float64 {
	tb.Helper()
	srv, err := NewServer(func() *Model { return TinyCNN(1, 8, 8, 4, 1) }, ServerConfig{
		Config:  Config{VirtualBatch: 4, Seed: 1, EnclaveBytes: -1},
		Workers: 1,
		MaxWait: maxWait,
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

// BenchmarkServing measures concurrent batched serving against the
// sequential one-request-at-a-time baseline at K=4 (same model, same
// single worker, same device gang) and reports the speedup. Dynamic
// K-batching amortizes one coded dispatch over up to K real rows, so the
// batched-x metric sits near K.
func BenchmarkServing(b *testing.B) {
	var seq, batched float64
	for i := 0; i < b.N; i++ {
		seq = serveThroughput(b, 1, 32, -1)
		batched = serveThroughput(b, 16, 128, 5*time.Millisecond)
	}
	b.ReportMetric(seq, "seq-req/s")
	b.ReportMetric(batched, "batched-req/s")
	b.ReportMetric(batched/seq, "batched-x")
}

// TestServingBatchedSpeedup enforces the serving win: batched concurrent
// throughput must be at least 2x the sequential baseline at K=4.
func TestServingBatchedSpeedup(t *testing.T) {
	seq := serveThroughput(t, 1, 32, -1)
	batched := serveThroughput(t, 16, 128, 5*time.Millisecond)
	if batched < 2*seq {
		t.Fatalf("batched throughput %.0f req/s < 2x sequential %.0f req/s", batched, seq)
	}
	t.Logf("sequential %.0f req/s, batched %.0f req/s (%.1fx)", seq, batched, batched/seq)
}

// BenchmarkMaskedTrainingStep measures the wall-clock cost of one full
// masked virtual-batch step on the functional stack (TinyCNN, K=2) — the
// reproduction's own overhead, not the paper hardware model.
func BenchmarkMaskedTrainingStep(b *testing.B) {
	model := TinyCNN(1, 8, 8, 4, 1)
	sys, err := NewSystem(model, Config{VirtualBatch: 2, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	defer sys.Close()
	data := SyntheticDataset(2, 4, 1, 8, 8, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sys.TrainBatch(data); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMaskedInference measures one masked K=2 inference on the
// functional stack.
func BenchmarkMaskedInference(b *testing.B) {
	model := TinyCNN(1, 8, 8, 4, 1)
	sys, err := NewSystem(model, Config{VirtualBatch: 2, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	defer sys.Close()
	data := SyntheticDataset(2, 4, 1, 8, 8, 2)
	images := [][]float64{data[0].Image, data[1].Image}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sys.Predict(images); err != nil {
			b.Fatal(err)
		}
	}
}
