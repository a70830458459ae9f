package darknight

// Ablation benchmarks for the design choices the paper (and DESIGN.md)
// call out: virtual batch size K, collusion tolerance M, integrity
// redundancy E, Algorithm 2 shard granularity, and pipelining. The
// hardware-model ablations report modelled seconds; the functional
// ablations measure this implementation's real work.

import (
	"fmt"
	"testing"

	"darknight/internal/enclave"
	"darknight/internal/field"
	"darknight/internal/gpu"
	"darknight/internal/masking"
	"darknight/internal/nn"
	"darknight/internal/perf"
	"darknight/internal/sched"
	mrand "math/rand"
)

// BenchmarkAblationVirtualBatch sweeps K on the hardware model (VGG16
// training): larger K amortizes enclave overheads until the EPC knee.
func BenchmarkAblationVirtualBatch(b *testing.B) {
	p := perf.Default()
	w := perf.NewWorkload(nn.VGG16Arch())
	for _, k := range []int{1, 2, 4, 6} {
		b.Run(fmt.Sprintf("K=%d", k), func(b *testing.B) {
			var total float64
			for i := 0; i < b.N; i++ {
				total = perf.DarKnightTrain(p, w, perf.Coding{K: k, M: 1}, false).Total()
			}
			b.ReportMetric(total*1000, "model-ms/img")
		})
	}
}

// BenchmarkAblationCollusion sweeps M: every extra tolerated colluder
// costs one more noise vector, GPU and coded transfer.
func BenchmarkAblationCollusion(b *testing.B) {
	p := perf.Default()
	w := perf.NewWorkload(nn.VGG16Arch())
	for _, m := range []int{1, 2, 3, 4} {
		b.Run(fmt.Sprintf("M=%d", m), func(b *testing.B) {
			var total float64
			for i := 0; i < b.N; i++ {
				total = perf.DarKnightTrain(p, w, perf.Coding{K: 2, M: m}, false).Total()
			}
			b.ReportMetric(total*1000, "model-ms/img")
			b.ReportMetric(float64(perf.Coding{K: 2, M: m}.Width()), "gpus")
		})
	}
}

// BenchmarkAblationIntegrity compares E=0/1/2 on the functional stack:
// verification doubles the decode and E=2 buys attribution.
func BenchmarkAblationIntegrity(b *testing.B) {
	for _, e := range []int{0, 1, 2} {
		b.Run(fmt.Sprintf("E=%d", e), func(b *testing.B) {
			model := TinyCNN(1, 8, 8, 4, 1)
			sys, err := NewSystem(model, Config{VirtualBatch: 2, Redundancy: e, Seed: 1})
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
		})
	}
}

// BenchmarkAblationShardSize sweeps the Algorithm 2 shard granularity on
// the functional enclave: finer shards mean more seal operations for the
// same bytes.
func BenchmarkAblationShardSize(b *testing.B) {
	for _, shard := range []int{64, 512, 0 /* single shard */} {
		b.Run(fmt.Sprintf("shard=%d", shard), func(b *testing.B) {
			rng := mrand.New(mrand.NewSource(1))
			model := nn.TinyCNN(1, 8, 8, 4, rng)
			cluster := gpu.NewHonestCluster(3)
			encl, err := enclave.New(enclave.DefaultEPCBytes)
			if err != nil {
				b.Fatal(err)
			}
			tr, err := sched.NewTrainer(sched.Config{VirtualBatch: 2, Seed: 1}, model, cluster, encl)
			if err != nil {
				b.Fatal(err)
			}
			defer tr.Close()
			data := SyntheticDataset(8, 4, 1, 8, 8, 2)
			opt := nn.NewSGD(0.01, 0)
			b.ResetTimer()
			var stats sched.AggregationStats
			for i := 0; i < b.N; i++ {
				_, stats, err = tr.TrainLargeBatch(data, opt, shard)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(stats.Shards), "shards")
			b.ReportMetric(float64(stats.SealedBytes), "sealed-bytes")
		})
	}
}

// BenchmarkAblationPipelining reports the modelled pipelined-vs-serial gap
// per model (the Fig 5 design choice).
func BenchmarkAblationPipelining(b *testing.B) {
	p := perf.Default()
	for _, arch := range []*nn.Arch{nn.VGG16Arch(), nn.ResNet50Arch(), nn.MobileNetV2Arch()} {
		w := perf.NewWorkload(arch)
		b.Run(arch.Name, func(b *testing.B) {
			var serial, pipe float64
			for i := 0; i < b.N; i++ {
				serial = perf.DarKnightTrain(p, w, perf.Coding{K: 2, M: 1}, false).Total()
				pipe = perf.DarKnightTrain(p, w, perf.Coding{K: 2, M: 1}, true).Total()
			}
			b.ReportMetric(serial/pipe, "pipeline-gain-x")
		})
	}
}

// BenchmarkFieldOps measures the F_p primitives that dominate enclave-side
// encode/decode work.
func BenchmarkFieldOps(b *testing.B) {
	rng := mrand.New(mrand.NewSource(1))
	x := field.RandVec(rng, 4096)
	y := field.RandVec(rng, 4096)
	s := field.RandNonZero(rng)
	b.Run("Dot4096", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			field.Dot(x, y)
		}
	})
	b.Run("AXPY4096", func(b *testing.B) {
		dst := y.Clone()
		for i := 0; i < b.N; i++ {
			field.AXPY(dst, s, x)
		}
	})
	b.Run("Inv", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			field.MustInv(s)
		}
	})
}

// BenchmarkMaskingCode measures fresh-code generation and encode/decode at
// the paper's operating points.
func BenchmarkMaskingCode(b *testing.B) {
	rng := mrand.New(mrand.NewSource(1))
	for _, params := range []masking.Params{
		{K: 2, M: 1}, {K: 4, M: 1, Redundancy: 1}, {K: 4, M: 2, Redundancy: 1},
	} {
		name := fmt.Sprintf("K%dM%dE%d", params.K, params.M, params.Redundancy)
		b.Run("New/"+name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := masking.New(params, rng); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run("Encode4096/"+name, func(b *testing.B) {
			code, err := masking.New(params, rng)
			if err != nil {
				b.Fatal(err)
			}
			inputs := make([]field.Vec, params.K)
			for i := range inputs {
				inputs[i] = field.RandVec(rng, 4096)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := code.Encode(inputs, rng); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
