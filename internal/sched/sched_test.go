package sched

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"darknight/internal/dataset"
	"darknight/internal/enclave"
	"darknight/internal/field"
	"darknight/internal/gpu"
	"darknight/internal/nn"
	"darknight/internal/obs"
)

// tinyCluster builds n honest devices, each optionally wrapped by devWrap.
func tinyCluster(n int, devWrap func(int, gpu.Device) gpu.Device) *gpu.Cluster {
	devs := make([]gpu.Device, n)
	for i := range devs {
		devs[i] = gpu.NewHonest(i)
		if devWrap != nil {
			devs[i] = devWrap(i, devs[i])
		}
	}
	return gpu.NewCluster(devs...)
}

// integrityVerdicts attaches a flight recorder to every lane of rt and
// returns a reader of the integrity verdicts recorded since.
func integrityVerdicts(rt interface{ SetObserver(*obs.FlightRecorder) }) func() []string {
	rec := obs.NewFlightRecorder(4096)
	rt.SetObserver(rec)
	return func() []string {
		var out []string
		for _, ev := range rec.Dump() {
			if ev.Kind == obs.KindIntegrity {
				out = append(out, ev.Detail)
			}
		}
		return out
	}
}

// checkRecovered requires at least one integrity verdict, every one of
// them naming exactly the culprit slot bad and recovered.
func checkRecovered(t *testing.T, verdicts []string, bad int) {
	t.Helper()
	want := fmt.Sprintf("culprit slots [%d], recovered from clean equations", bad)
	if len(verdicts) == 0 {
		t.Fatal("no integrity verdict recorded")
	}
	for _, v := range verdicts {
		if v != want {
			t.Fatalf("integrity verdict %q, want %q", v, want)
		}
	}
}

func tinyData() *dataset.Dataset {
	return dataset.SyntheticCIFAR(rand.New(rand.NewSource(7)), 240, 4, 1, 8, 8, 0.05)
}

func tinySetup(t *testing.T, cfg Config, clusterSize int, devWrap func(int, gpu.Device) gpu.Device) (*Trainer, *nn.Model, *dataset.Dataset) {
	t.Helper()
	model := nn.TinyCNN(1, 8, 8, 4, rand.New(rand.NewSource(42)))
	tr, err := NewTrainer(cfg, model, tinyCluster(clusterSize, devWrap), nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(tr.Close)
	return tr, model, tinyData()
}

// tinyInferencer is tinySetup's forward-only twin: a one-lane Inferencer
// over the same model and data, and the cluster to dispatch on.
func tinyInferencer(t *testing.T, cfg Config, clusterSize int, devWrap func(int, gpu.Device) gpu.Device) (*Inferencer, *gpu.Cluster, *nn.Model, *dataset.Dataset) {
	t.Helper()
	model := nn.TinyCNN(1, 8, 8, 4, rand.New(rand.NewSource(42)))
	inf, err := NewInferencer(cfg, model, nil, "")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(inf.Close)
	return inf, tinyCluster(clusterSize, devWrap), model, tinyData()
}

func TestConfigValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	model := nn.TinyCNN(1, 8, 8, 4, rng)
	cluster := gpu.NewHonestCluster(3)
	// K=4, M=1 needs 5 GPUs; only 3 present.
	if _, err := NewTrainer(Config{VirtualBatch: 4}, model, cluster, nil); err == nil {
		t.Fatal("undersized cluster accepted")
	}
	// K=2, M=1 fits exactly in 3.
	tr, err := NewTrainer(Config{VirtualBatch: 2}, model, cluster, nil)
	if err != nil {
		t.Fatal(err)
	}
	tr.Close()
	// Invalid K.
	if _, err := NewTrainer(Config{VirtualBatch: 0}, model, cluster, nil); err == nil {
		t.Fatal("K=0 accepted")
	}
}

func TestMaskedForwardMatchesFloat(t *testing.T) {
	// The masked pipeline must produce (near-)identical logits to the
	// plain float forward: masking decodes exactly; only quantization
	// rounding remains.
	inf, cluster, model, data := tinyInferencer(t, Config{VirtualBatch: 2, Seed: 3}, 3, nil)
	images := [][]float64{data.Items[0].Image, data.Items[1].Image}
	preds, err := inf.Predict(cluster, images)
	if err != nil {
		t.Fatal(err)
	}
	for i, img := range images {
		logits := model.Forward(img, false)
		if got, want := preds[i], nn.Argmax(logits); got != want {
			t.Fatalf("image %d: masked pred %d, float pred %d", i, got, want)
		}
	}
}

func TestMaskedGradientsMatchFloat(t *testing.T) {
	// Train one virtual batch with the masked pipeline and compare its
	// gradients against the float reference on an identical twin model. A
	// unit-rate momentum-free step moves each weight by the mean gradient,
	// so K times the weight delta is the summed masked gradient.
	cfg := Config{VirtualBatch: 2, Seed: 9}
	tr, model, data := tinySetup(t, cfg, 3, nil)
	twin := nn.TinyCNN(1, 8, 8, 4, rand.New(rand.NewSource(42))) // same init seed
	batch := data.Items[:2]

	var before [][]float64
	for _, p := range model.Params() {
		before = append(before, append([]float64(nil), p.W.Data...))
	}
	if _, _, err := tr.TrainLargeBatch(batch, nn.NewSGD(1, 0), 0); err != nil {
		t.Fatal(err)
	}
	// Float reference: accumulate summed grads on the twin.
	for _, ex := range batch {
		_, g := nn.SoftmaxCrossEntropy(twin.Forward(ex.Image, true), ex.Label)
		twin.Stack.Backward(g)
	}

	mp, fp := model.Params(), twin.Params()
	if len(mp) != len(fp) {
		t.Fatal("param count mismatch")
	}
	for pi := range mp {
		scale := fp[pi].Grad.MaxAbs()
		tol := 0.05 + 0.05*scale
		for i, w := range mp[pi].W.Data {
			masked := (before[pi][i] - w) * float64(len(batch))
			if diff := math.Abs(masked - fp[pi].Grad.Data[i]); diff > tol {
				t.Fatalf("param %s grad[%d]: masked %v vs float %v (tol %v)",
					mp[pi].Name, i, masked, fp[pi].Grad.Data[i], tol)
			}
		}
	}
}

func TestDarKnightTrainingLearns(t *testing.T) {
	// End-to-end: the full masked pipeline (quantization + masking +
	// coded backward + Algorithm 2 aggregation) trains TinyCNN to high
	// accuracy — the Fig 4 "no accuracy degradation" claim in miniature.
	tr, model, data := tinySetup(t, Config{VirtualBatch: 2, Seed: 5}, 3, nil)
	train, test := data.Split(0.8)
	opt := nn.NewSGD(0.05, 0.9)
	for epoch := 0; epoch < 4; epoch++ {
		train.Shuffle(rand.New(rand.NewSource(int64(epoch))))
		for _, b := range train.Batches(8) {
			if _, _, err := tr.TrainLargeBatch(b, opt, 0); err != nil {
				t.Fatal(err)
			}
		}
	}
	if acc := model.Evaluate(test); acc < 0.85 {
		t.Fatalf("masked training accuracy %.2f < 0.85", acc)
	}
}

func TestResidualModelMaskedTraining(t *testing.T) {
	// The recursive walker must handle residual blocks (ResNet path).
	rng := rand.New(rand.NewSource(11))
	model := nn.ResNet50Scaled(1, 8, 8, 4, 1, rng)
	cluster := gpu.NewHonestCluster(3)
	tr, err := NewTrainer(Config{VirtualBatch: 2, Seed: 1}, model, cluster, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	data := dataset.SyntheticCIFAR(rand.New(rand.NewSource(2)), 8, 4, 1, 8, 8, 0.05)
	opt := nn.NewSGD(0.01, 0)
	l1, _, err := tr.TrainLargeBatch(data.Items[:4], opt, 0)
	if err != nil {
		t.Fatal(err)
	}
	var l2 float64
	for i := 0; i < 6; i++ {
		l2, _, err = tr.TrainLargeBatch(data.Items[:4], opt, 0)
		if err != nil {
			t.Fatal(err)
		}
	}
	if !(l2 < l1) {
		t.Fatalf("residual masked training loss did not decrease: %v -> %v", l1, l2)
	}
}

func TestIntegrityDetectsMaliciousGPU(t *testing.T) {
	// One malicious GPU corrupting every job; with Redundancy=1 the
	// trainer must refuse the results.
	cfg := Config{VirtualBatch: 2, Redundancy: 1, Seed: 13}
	tr, _, data := tinySetup(t, cfg, 4, func(i int, d gpu.Device) gpu.Device {
		if i == 1 {
			return gpu.NewMalicious(d, gpu.FaultPolicy{EveryNth: 1})
		}
		return d
	})
	_, _, err := tr.TrainLargeBatch(data.Items[:2], nn.NewSGD(0.01, 0), 0)
	if !errors.Is(err, ErrIntegrity) {
		t.Fatalf("err = %v, want integrity violation", err)
	}
}

func TestIntegrityPassesHonestCluster(t *testing.T) {
	cfg := Config{VirtualBatch: 2, Redundancy: 1, Seed: 13}
	tr, _, data := tinySetup(t, cfg, 4, nil)
	if _, _, err := tr.TrainLargeBatch(data.Items[:2], nn.NewSGD(0.01, 0), 0); err != nil {
		t.Fatalf("honest cluster rejected: %v", err)
	}
}

func TestPredictWithIntegrity(t *testing.T) {
	cfg := Config{VirtualBatch: 2, Redundancy: 1, Seed: 13}
	inf, cluster, _, data := tinyInferencer(t, cfg, 4, func(i int, d gpu.Device) gpu.Device {
		if i == 3 {
			return gpu.NewMalicious(d, gpu.FaultPolicy{EveryNth: 1})
		}
		return d
	})
	_, err := inf.Predict(cluster, [][]float64{data.Items[0].Image, data.Items[1].Image})
	if !errors.Is(err, ErrIntegrity) {
		t.Fatalf("err = %v, want integrity violation", err)
	}
}

func TestColludingGPUsSeeOnlyCodedData(t *testing.T) {
	// Wire a collusion pool on one device (M=1 tolerance) and confirm it
	// observed only coded vectors, never a raw quantized input.
	pool := gpu.NewCollusionPool()
	cfg := Config{VirtualBatch: 2, Seed: 17}
	tr, _, data := tinySetup(t, cfg, 3, func(i int, d gpu.Device) gpu.Device {
		if i == 0 {
			return gpu.NewColluding(d, pool)
		}
		return d
	})
	if _, _, err := tr.TrainLargeBatch(data.Items[:2], nn.NewSGD(0.01, 0), 0); err != nil {
		t.Fatal(err)
	}
	obs := pool.Observations("t0/step1/lin1")
	if len(obs) == 0 {
		t.Fatal("collusion pool recorded nothing")
	}
	// The observed coded input must not equal either raw quantized image.
	q := tr.all[0].q
	for _, o := range obs {
		for i := 0; i < 2; i++ {
			raw := q.Quantize(data.Items[i].Image)
			if len(raw) == len(o.Data) && o.Data.Equal(raw) {
				t.Fatal("colluder observed a raw input")
			}
		}
	}
}

func TestEnclaveMemoryLimitBlocksOversizedBatch(t *testing.T) {
	// A tiny enclave cannot hold the virtual batch working set — the
	// condition that bounds K in the paper (§6, Fig 6b).
	rng := rand.New(rand.NewSource(19))
	model := nn.TinyCNN(1, 8, 8, 4, rng)
	cluster := gpu.NewHonestCluster(3)
	encl, err := enclave.New(128) // 128 bytes: absurdly small
	if err != nil {
		t.Fatal(err)
	}
	tr, err := NewTrainer(Config{VirtualBatch: 2, Seed: 1}, model, cluster, encl)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	data := dataset.SyntheticCIFAR(rand.New(rand.NewSource(2)), 2, 4, 1, 8, 8, 0.05)
	if _, _, err := tr.TrainLargeBatch(data.Items[:2], nn.NewSGD(0.01, 0), 0); !errors.Is(err, enclave.ErrOutOfMemory) {
		t.Fatalf("err = %v, want enclave OOM", err)
	}
}

func TestTrainLargeBatchAggregation(t *testing.T) {
	// Algorithm 2 with a real enclave: virtual-batch gradients are sealed
	// and reloaded; stats reflect the shard structure.
	rng := rand.New(rand.NewSource(23))
	model := nn.TinyCNN(1, 8, 8, 4, rng)
	cluster := gpu.NewHonestCluster(3)
	encl, err := enclave.New(enclave.DefaultEPCBytes)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := NewTrainer(Config{VirtualBatch: 2, Seed: 1}, model, cluster, encl)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	data := dataset.SyntheticCIFAR(rand.New(rand.NewSource(2)), 8, 4, 1, 8, 8, 0.05)
	opt := nn.NewSGD(0.01, 0)
	_, stats, err := tr.TrainLargeBatch(data.Items[:8], opt, 100)
	if err != nil {
		t.Fatal(err)
	}
	if stats.VirtualBatches != 4 {
		t.Fatalf("virtual batches = %d, want 4", stats.VirtualBatches)
	}
	if stats.Shards < 2 {
		t.Fatalf("shards = %d, want >= 2 with 100-element shards", stats.Shards)
	}
	if stats.SealedBytes == 0 {
		t.Fatal("no sealed bytes recorded")
	}
	est := encl.Stats()
	if est.SealOps == 0 || est.UnsealOps != est.SealOps {
		t.Fatalf("enclave stats = %+v", est)
	}
}

func TestTrainLargeBatchErrors(t *testing.T) {
	tr, _, data := tinySetup(t, Config{VirtualBatch: 4, Seed: 1}, 6, nil)
	opt := nn.NewSGD(0.01, 0)
	if _, _, err := tr.TrainLargeBatch(data.Items[:2], opt, 0); err == nil {
		t.Fatal("batch smaller than K accepted")
	}
	inf, cluster, _, _ := tinyInferencer(t, Config{VirtualBatch: 4, Seed: 1}, 6, nil)
	if _, err := inf.Predict(cluster, [][]float64{data.Items[0].Image}); err == nil {
		t.Fatal("wrong predict batch size accepted")
	}
}

// forwardTamper corrupts every forward result through the wrapped
// malicious device but answers gradient jobs honestly, so the model's
// accuracy measures the forward recovery alone.
type forwardTamper struct {
	gpu.Device
	honest gpu.Device
}

func (d forwardTamper) GradWeights(key string, kernel gpu.BilinearKernel, delta field.Vec) (field.Vec, error) {
	return d.honest.GradWeights(key, kernel, delta)
}

func TestRecoveryFromMaliciousGPU(t *testing.T) {
	// With Redundancy=2 and recovery enabled, training proceeds THROUGH a
	// tampering GPU: the culprit is identified and clean equations decode
	// the true results (the paper's "corrective action" future work).
	for _, tc := range []struct {
		name string
		bad  func(d gpu.Device) gpu.Device
		// minAcc is the accuracy floor after training; 0 skips it. A
		// device that also tampers with gradients corrupts the unverified
		// single-window backward (E = 2, slack 0), so where the model
		// lands then depends on the coefficient draws, not on recovery.
		minAcc float64
	}{
		{"both-passes", func(d gpu.Device) gpu.Device {
			return gpu.NewMalicious(d, gpu.FaultPolicy{EveryNth: 1})
		}, 0},
		{"forward-only", func(d gpu.Device) gpu.Device {
			return forwardTamper{Device: gpu.NewMalicious(d, gpu.FaultPolicy{EveryNth: 1}), honest: d}
		}, 0.5},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := Config{VirtualBatch: 2, Redundancy: 2, Seed: 29}
			tr, model, data := tinySetup(t, cfg, 5, func(i int, d gpu.Device) gpu.Device {
				if i == 2 {
					return tc.bad(d)
				}
				return d
			})
			if err := tr.EnableRecovery(); err != nil {
				t.Fatal(err)
			}
			verdicts := integrityVerdicts(tr)
			// Train a few batches despite constant tampering.
			opt := nn.NewSGD(0.05, 0.9)
			for i := 0; i+8 <= 48; i += 8 {
				if _, _, err := tr.TrainLargeBatch(data.Items[i:i+8], opt, 0); err != nil {
					t.Fatalf("batch %d: %v", i, err)
				}
			}
			checkRecovered(t, verdicts(), 2)
			if acc := model.Evaluate(data); acc < tc.minAcc {
				t.Fatalf("recovered training accuracy %.2f too low", acc)
			}
		})
	}
}

func TestRecoveryMatchesHonestDecode(t *testing.T) {
	// Recovered outputs must be IDENTICAL to what an honest cluster
	// produces: the decode is exact, not approximate.
	seedData := dataset.SyntheticCIFAR(rand.New(rand.NewSource(31)), 2, 4, 1, 8, 8, 0.05)
	images := [][]float64{seedData.Items[0].Image, seedData.Items[1].Image}

	cfgHonest := Config{VirtualBatch: 2, Redundancy: 2, Seed: 33}
	infHonest, honestCluster, _, _ := tinyInferencer(t, cfgHonest, 5, nil)
	honest, err := infHonest.Predict(honestCluster, images)
	if err != nil {
		t.Fatal(err)
	}

	infBad, badCluster, _, _ := tinyInferencer(t, cfgHonest, 5, func(i int, d gpu.Device) gpu.Device {
		if i == 0 {
			return gpu.NewMalicious(d, gpu.FaultPolicy{EveryNth: 1})
		}
		return d
	})
	if err := infBad.EnableRecovery(); err != nil {
		t.Fatal(err)
	}
	recovered, err := infBad.Predict(badCluster, images)
	if err != nil {
		t.Fatal(err)
	}
	for i := range honest {
		if honest[i] != recovered[i] {
			t.Fatalf("prediction %d: honest %d vs recovered %d", i, honest[i], recovered[i])
		}
	}
}

func TestEnableRecoveryRequiresRedundancy2(t *testing.T) {
	tr, _, _ := tinySetup(t, Config{VirtualBatch: 2, Redundancy: 1, Seed: 1}, 4, nil)
	if err := tr.EnableRecovery(); err == nil {
		t.Fatal("recovery with E=1 accepted")
	}
}

func TestDeterministicWithSeed(t *testing.T) {
	// Same seed and same data produce identical trained weights — the
	// whole pipeline (coefficient draws, noise, coding) is reproducible.
	run := func() []float64 {
		tr, model, data := tinySetup(t, Config{VirtualBatch: 2, Seed: 77}, 3, nil)
		opt := nn.NewSGD(0.05, 0.9)
		for i := 0; i+8 <= 24; i += 8 {
			if _, _, err := tr.TrainLargeBatch(data.Items[i:i+8], opt, 0); err != nil {
				t.Fatal(err)
			}
		}
		var out []float64
		for _, p := range model.Params() {
			out = append(out, p.W.Data...)
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("weight %d differs across identical seeded runs", i)
		}
	}
}

func TestMaskedVGGAndMobileNetTraining(t *testing.T) {
	// The walker must handle the two remaining model families end to end.
	for _, build := range []func(*rand.Rand) *nn.Model{
		func(r *rand.Rand) *nn.Model { return nn.VGG16Scaled(1, 8, 8, 4, 1, r) },
		func(r *rand.Rand) *nn.Model { return nn.MobileNetV2Scaled(1, 8, 8, 4, 1, r) },
	} {
		model := build(rand.New(rand.NewSource(13)))
		cluster := gpu.NewHonestCluster(3)
		tr, err := NewTrainer(Config{VirtualBatch: 2, Seed: 1}, model, cluster, nil)
		if err != nil {
			t.Fatal(err)
		}
		data := dataset.SyntheticCIFAR(rand.New(rand.NewSource(2)), 4, 4, 1, 8, 8, 0.05)
		opt := nn.NewSGD(0.01, 0)
		_, _, err = tr.TrainLargeBatch(data.Items, opt, 0)
		tr.Close()
		if err != nil {
			t.Fatalf("%s: %v", model.Name, err)
		}
	}
}
