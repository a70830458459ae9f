package experiments

import (
	"fmt"
	"math/rand"
	"strings"

	"darknight/internal/dataset"
	"darknight/internal/gpu"
	"darknight/internal/nn"
	"darknight/internal/perf"
	"darknight/internal/sched"
)

// ---------------------------------------------------------------- Fig 3

// Figure3Row is one model's aggregation speedup series over K.
type Figure3Row struct {
	Model    string
	Speedups map[int]float64 // K -> speedup over K=1
}

// Figure3 reproduces the virtual-batch aggregation speedup (Algorithm 2)
// for batch size 128, K in {2..5}.
func Figure3() []Figure3Row {
	p, ws := profileAndWorkloads()
	var rows []Figure3Row
	for _, name := range []string{"VGG16", "ResNet50", "MobileNetV2"} {
		r := Figure3Row{Model: name, Speedups: map[int]float64{}}
		for _, k := range []int{2, 3, 4, 5} {
			r.Speedups[k] = perf.AggregationSpeedup(p, ws[name], 1, 0, k, 128)
		}
		rows = append(rows, r)
	}
	return rows
}

// RenderFigure3 formats the Fig 3 series.
func RenderFigure3(rows []Figure3Row) string {
	var b strings.Builder
	fmt.Fprintln(&b, "Figure 3: aggregation speedup vs virtual batch size (batch 128, rel. K=1)")
	fmt.Fprintf(&b, "%-14s %8s %8s %8s %8s\n", "Model", "K=2", "K=3", "K=4", "K=5")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-14s %8.2f %8.2f %8.2f %8.2f\n",
			r.Model, r.Speedups[2], r.Speedups[3], r.Speedups[4], r.Speedups[5])
	}
	return b.String()
}

// ---------------------------------------------------------------- Fig 4

// Figure4Point is one epoch's accuracy pair.
type Figure4Point struct {
	Epoch             int
	RawAcc, DarKnight float64
}

// Figure4Series is one model's raw-vs-DarKnight accuracy trajectory.
type Figure4Series struct {
	Model  string
	Points []Figure4Point
	// FinalGap is |raw - darknight| at the last epoch (paper: <0.01).
	FinalGap float64
}

// Figure4Config sizes the accuracy experiment. The paper trains the
// full-size nets on CIFAR-10 for 100 epochs; this reproduction trains the
// structurally-faithful scaled variants on synthetic CIFAR (substitution in
// DESIGN.md) — the raw-vs-masked comparison, which is what Fig 4 is about,
// is preserved exactly.
type Figure4Config struct {
	Epochs int
	Train  int // training examples
	Test   int
	Width  int // scaled-model width multiplier
	Seed   int64
	// LR / Momentum drive both optimizers identically.
	LR, Momentum float64
}

// DefaultFigure4Config is sized to run in a couple of minutes.
func DefaultFigure4Config() Figure4Config {
	return Figure4Config{Epochs: 6, Train: 240, Test: 60, Width: 1, Seed: 1,
		LR: 0.01, Momentum: 0.5}
}

// QuickFigure4Config is sized for the benchmark harness.
func QuickFigure4Config() Figure4Config {
	return Figure4Config{Epochs: 4, Train: 160, Test: 48, Width: 1, Seed: 1,
		LR: 0.01, Momentum: 0.5}
}

// Figure4 trains each scaled model twice — float reference ("Raw Data")
// and the full DarKnight masked pipeline — on the same data and records
// test accuracy per epoch.
func Figure4(cfg Figure4Config) ([]Figure4Series, error) {
	// Per-model learning rates (the paper tunes per model too): VGG has
	// no normalization and needs a conservative step; the BN-heavy nets
	// train faster with larger ones.
	builders := []struct {
		name  string
		lrMul float64
		build func(rng *rand.Rand) *nn.Model
	}{
		{"VGG16", 1, func(rng *rand.Rand) *nn.Model { return nn.VGG16Scaled(1, 8, 8, 4, cfg.Width, rng) }},
		{"ResNet50", 2, func(rng *rand.Rand) *nn.Model { return nn.ResNet50Scaled(1, 8, 8, 4, cfg.Width, rng) }},
		{"MobileNetV2", 5, func(rng *rand.Rand) *nn.Model { return nn.MobileNetV2Scaled(1, 8, 8, 4, cfg.Width, rng) }},
	}
	var out []Figure4Series
	for _, bb := range builders {
		data := dataset.SyntheticCIFAR(rand.New(rand.NewSource(cfg.Seed)), cfg.Train+cfg.Test, 4, 1, 8, 8, 0.05)
		train, test := data.Split(float64(cfg.Train) / float64(cfg.Train+cfg.Test))

		raw := bb.build(rand.New(rand.NewSource(cfg.Seed + 7)))
		masked := bb.build(rand.New(rand.NewSource(cfg.Seed + 7))) // identical init
		cluster := gpu.NewHonestCluster(3)
		trainer, err := sched.NewTrainer(sched.Config{VirtualBatch: 2, Seed: cfg.Seed}, masked, cluster, nil)
		if err != nil {
			return nil, err
		}
		optRaw := nn.NewSGD(cfg.LR*bb.lrMul, cfg.Momentum)
		optMasked := nn.NewSGD(cfg.LR*bb.lrMul, cfg.Momentum)

		series := Figure4Series{Model: bb.name}
		for epoch := 1; epoch <= cfg.Epochs; epoch++ {
			shuffler := rand.New(rand.NewSource(cfg.Seed + int64(epoch)))
			train.Shuffle(shuffler)
			for _, batch := range train.Batches(8) {
				raw.TrainBatch(batch, optRaw)
				if _, _, err := trainer.TrainLargeBatch(batch, optMasked, 0); err != nil {
					trainer.Close()
					return nil, err
				}
			}
			pt := Figure4Point{
				Epoch:     epoch,
				RawAcc:    raw.Evaluate(test),
				DarKnight: masked.Evaluate(test),
			}
			series.Points = append(series.Points, pt)
		}
		trainer.Close()
		last := series.Points[len(series.Points)-1]
		series.FinalGap = last.RawAcc - last.DarKnight
		if series.FinalGap < 0 {
			series.FinalGap = -series.FinalGap
		}
		out = append(out, series)
	}
	return out, nil
}

// RenderFigure4 formats the accuracy trajectories.
func RenderFigure4(series []Figure4Series) string {
	var b strings.Builder
	fmt.Fprintln(&b, "Figure 4: training accuracy, Raw Data vs DarKnight (synthetic CIFAR)")
	for _, s := range series {
		fmt.Fprintf(&b, "%s (final |gap| = %.3f)\n", s.Model, s.FinalGap)
		fmt.Fprintf(&b, "  %-6s %10s %10s\n", "epoch", "raw", "darknight")
		for _, p := range s.Points {
			fmt.Fprintf(&b, "  %-6d %10.3f %10.3f\n", p.Epoch, p.RawAcc, p.DarKnight)
		}
	}
	return b.String()
}

// ---------------------------------------------------------------- Fig 5

// Figure5Row is one model's training speedup pair.
type Figure5Row struct {
	Model                   string
	NonPipelined, Pipelined float64
}

// Figure5 reproduces the ImageNet training speedup over the SGX baseline
// for the non-pipelined and pipelined designs (K=2, 3 GPUs).
func Figure5() []Figure5Row {
	p, ws := profileAndWorkloads()
	c := perf.Coding{K: 2, M: 1}
	var rows []Figure5Row
	for _, name := range []string{"VGG16", "ResNet50", "MobileNetV2"} {
		w := ws[name]
		base := perf.BaselineSGXTrain(p, w).Total()
		rows = append(rows, Figure5Row{
			Model:        name,
			NonPipelined: base / perf.DarKnightTrain(p, w, c, false).Total(),
			Pipelined:    base / perf.DarKnightTrain(p, w, c, true).Total(),
		})
	}
	return rows
}

// RenderFigure5 formats Fig 5.
func RenderFigure5(rows []Figure5Row) string {
	var b strings.Builder
	fmt.Fprintln(&b, "Figure 5: ImageNet training speedup over SGX baseline")
	fmt.Fprintf(&b, "%-14s %14s %12s\n", "Model", "Non-Pipelined", "Pipelined")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-14s %14.2f %12.2f\n", r.Model, r.NonPipelined, r.Pipelined)
	}
	return b.String()
}

// ---------------------------------------------------------------- Fig 6a

// Figure6aRow is one model's inference speedup set (relative to SGX-only).
type Figure6aRow struct {
	Model                                                   string
	SGX, Slalom, DarKnight4, SlalomIntegrity, DarKnight3Int float64
}

// Figure6a reproduces the inference comparison for VGG16 and MobileNetV1.
func Figure6a() []Figure6aRow {
	p, ws := profileAndWorkloads()
	var rows []Figure6aRow
	for _, name := range []string{"VGG16", "MobileNetV1"} {
		w := ws[name]
		sgx := perf.SGXInference(p, w)
		rows = append(rows, Figure6aRow{
			Model:           name,
			SGX:             1,
			Slalom:          sgx / perf.SlalomInference(p, w, false),
			DarKnight4:      sgx / perf.DarKnightInference(p, w, perf.Coding{K: 4, M: 1}),
			SlalomIntegrity: sgx / perf.SlalomInference(p, w, true),
			DarKnight3Int:   sgx / perf.DarKnightInference(p, w, perf.Coding{K: 3, M: 1, E: 1}),
		})
	}
	return rows
}

// RenderFigure6a formats Fig 6a.
func RenderFigure6a(rows []Figure6aRow) string {
	var b strings.Builder
	fmt.Fprintln(&b, "Figure 6a: inference speedup relative to SGX baseline")
	fmt.Fprintf(&b, "%-14s %6s %8s %13s %17s %17s\n",
		"Model", "SGX", "Slalom", "DarKnight(4)", "Slalom+Integrity", "DarKnight(3)+Int")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-14s %6.1f %8.2f %13.2f %17.2f %17.2f\n",
			r.Model, r.SGX, r.Slalom, r.DarKnight4, r.SlalomIntegrity, r.DarKnight3Int)
	}
	return b.String()
}

// ---------------------------------------------------------------- Fig 6b

// Figure6bRow is one virtual-batch size's per-op speedups relative to
// DarKnight(1) for VGG16 inference.
type Figure6bRow struct {
	K                                          int
	Unblinding, Blinding, ReLU, MaxPool, Total float64
}

// Figure6b reproduces the per-op virtual-batch scaling.
func Figure6b() []Figure6bRow {
	p, ws := profileAndWorkloads()
	w := ws["VGG16"]
	base := perf.DarKnightInferenceOps(p, w, perf.Coding{K: 1, M: 1})
	var rows []Figure6bRow
	for _, k := range []int{1, 2, 4, 6} {
		o := perf.DarKnightInferenceOps(p, w, perf.Coding{K: k, M: 1})
		rows = append(rows, Figure6bRow{
			K:          k,
			Unblinding: base.Unblinding / o.Unblinding,
			Blinding:   base.Blinding / o.Blinding,
			ReLU:       base.ReLU / o.ReLU,
			MaxPool:    base.MaxPool / o.MaxPool,
			Total:      base.Total / o.Total,
		})
	}
	return rows
}

// RenderFigure6b formats Fig 6b.
func RenderFigure6b(rows []Figure6bRow) string {
	var b strings.Builder
	fmt.Fprintln(&b, "Figure 6b: VGG16 inference op speedup relative to DarKnight(1)")
	fmt.Fprintf(&b, "%-6s %10s %10s %8s %10s %8s\n", "K", "Unblinding", "Blinding", "Relu", "Maxpool", "Total")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-6d %10.2f %10.2f %8.2f %10.2f %8.2f\n",
			r.K, r.Unblinding, r.Blinding, r.ReLU, r.MaxPool, r.Total)
	}
	return b.String()
}

// ---------------------------------------------------------------- Fig 7

// Figure7Row is one thread count's relative training latency.
type Figure7Row struct {
	Threads int
	Latency float64 // relative to 1 thread
}

// Figure7 reproduces the SGX multithreading latency blow-up for VGG16.
func Figure7() []Figure7Row {
	p, ws := profileAndWorkloads()
	w := ws["VGG16"]
	base := perf.SGXMultithreadLatency(p, w, 1)
	var rows []Figure7Row
	for t := 1; t <= 4; t++ {
		rows = append(rows, Figure7Row{
			Threads: t,
			Latency: perf.SGXMultithreadLatency(p, w, t) / base,
		})
	}
	return rows
}

// RenderFigure7 formats Fig 7.
func RenderFigure7(rows []Figure7Row) string {
	var b strings.Builder
	fmt.Fprintln(&b, "Figure 7: VGG16 SGX training latency vs threads (rel. 1 thread)")
	fmt.Fprintf(&b, "%-8s %10s\n", "Threads", "Latency")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-8d %10.2f\n", r.Threads, r.Latency)
	}
	return b.String()
}
