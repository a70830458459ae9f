package darknight

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"testing"
	"time"

	"darknight/internal/masking"
	"darknight/internal/nn"
)

func TestSystemEndToEnd(t *testing.T) {
	model := TinyCNN(1, 8, 8, 4, 1)
	if model.ParamCount() == 0 || model.Name() == "" {
		t.Fatal("model malformed")
	}
	sys, err := NewSystem(model, Config{VirtualBatch: 2, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	data := SyntheticDataset(120, 4, 1, 8, 8, 5)
	train, test := data[:96], data[96:]
	for epoch := 0; epoch < 4; epoch++ {
		for i := 0; i+8 <= len(train); i += 8 {
			if _, err := sys.TrainBatch(train[i : i+8]); err != nil {
				t.Fatal(err)
			}
		}
	}
	if acc := sys.Evaluate(test); acc < 0.8 {
		t.Fatalf("accuracy %.2f < 0.8", acc)
	}
	preds, err := sys.Predict([][]float64{test[0].Image, test[1].Image})
	if err != nil {
		t.Fatal(err)
	}
	if len(preds) != 2 {
		t.Fatalf("preds = %v", preds)
	}
	if sys.GPUTraffic().Jobs == 0 {
		t.Fatal("no GPU traffic recorded")
	}
	if sys.EnclaveStats().SealOps == 0 {
		t.Fatal("no sealing recorded — Algorithm 2 not exercised")
	}
}

func TestSystemIntegrityDetection(t *testing.T) {
	model := TinyCNN(1, 8, 8, 4, 1)
	sys, err := NewSystem(model, Config{
		VirtualBatch:  2,
		Redundancy:    1,
		MaliciousGPUs: []int{1},
		Seed:          3,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	data := SyntheticDataset(8, 4, 1, 8, 8, 5)
	if _, err := sys.TrainBatch(data); !errors.Is(err, masking.ErrIntegrity) {
		t.Fatalf("err = %v, want integrity violation", err)
	}
}

func TestSystemConfigErrors(t *testing.T) {
	model := TinyCNN(1, 8, 8, 4, 1)
	if _, err := NewSystem(model, Config{VirtualBatch: 4, GPUs: 3}); err == nil {
		t.Fatal("undersized cluster accepted")
	}
	if _, err := NewSystem(model, Config{MaliciousGPUs: []int{99}}); err == nil {
		t.Fatal("out-of-range malicious index accepted")
	}
}

func TestSystemDefaults(t *testing.T) {
	model := TinyCNN(1, 8, 8, 4, 1)
	sys, err := NewSystem(model, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	data := SyntheticDataset(4, 4, 1, 8, 8, 5)
	if _, err := sys.TrainBatch(data); err != nil {
		t.Fatal(err)
	}
}

func TestModelBuilders(t *testing.T) {
	for _, m := range []*Model{
		VGG16(1, 8, 8, 4, 1, 1),
		ResNet50(1, 8, 8, 4, 1, 1),
		MobileNetV2(1, 8, 8, 4, 1, 1),
	} {
		if m.ParamCount() == 0 {
			t.Fatalf("%s has no params", m.Name())
		}
		sys, err := NewSystem(m, Config{Seed: 1})
		if err != nil {
			t.Fatalf("%s: %v", m.Name(), err)
		}
		sys.Close()
	}
}

// TestPipelinedTrainingFleetQuarantine exercises the facade's training
// gang source end to end: a corrupt-every-result GPU fails the first
// pipelined TrainBatch with an attributable integrity error, the fleet
// quarantines it on release, and the next batch trains cleanly on the
// surviving devices plus spares — private training survives a malicious
// device without operator action.
func TestPipelinedTrainingFleetQuarantine(t *testing.T) {
	model := TinyCNN(1, 8, 8, 4, 1)
	sys, err := NewSystem(model, Config{
		VirtualBatch:       2,
		Redundancy:         2, // attribution needs two redundant equations
		TrainPipelineDepth: 2,
		ManagedFleet:       true,
		SpareGPUs:          2,
		MaliciousGPUs:      []int{1},
		Seed:               3,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	batch := SyntheticDataset(8, 4, 1, 8, 8, 5)
	if _, err := sys.TrainBatch(batch); !errors.Is(err, masking.ErrIntegrity) {
		t.Fatalf("tampered first batch returned %v, want integrity error", err)
	}
	if fst := sys.FleetStats(); fst.QuarantineEvents == 0 {
		t.Fatalf("tamperer not quarantined: %+v", fst)
	}
	// Probation backoff (>= 100ms) keeps the offender out for the rest of
	// this test, so retraining must succeed on the surviving pool.
	if _, err := sys.TrainBatch(batch); err != nil {
		t.Fatalf("retrain after quarantine failed: %v", err)
	}
}

// TestSystemComposesAtEveryDepth: pipeline depth, fleet management and
// straggler slack are independent knobs. With E = 2 and one slow device,
// every combination — ManagedFleet at depth 0 and 1 included — trains to
// weights bit-identical to the one-lane, raw-cluster, wait-for-all System.
func TestSystemComposesAtEveryDepth(t *testing.T) {
	batch := SyntheticDataset(8, 4, 1, 8, 8, 5)
	train := func(t *testing.T, depth int, managed bool, slack int) []float64 {
		t.Helper()
		model := TinyCNN(1, 8, 8, 4, 1)
		sys, err := NewSystem(model, Config{
			VirtualBatch:       2,
			Redundancy:         2,
			TrainPipelineDepth: depth,
			ManagedFleet:       managed,
			StragglerSlack:     slack,
			SlowGPUs:           []int{0},
			SlowDelay:          time.Millisecond,
			Seed:               3,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer sys.Close()
		for step := 0; step < 3; step++ {
			if _, err := sys.TrainBatch(batch); err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
		}
		return model.Weights()
	}
	want := train(t, 0, false, 0)
	for _, depth := range []int{0, 1, 2} {
		for _, managed := range []bool{false, true} {
			for _, slack := range []int{0, 1} {
				fleet := "raw"
				if managed {
					fleet = "managed"
				}
				t.Run(fmt.Sprintf("depth%d-%s-slack%d", depth, fleet, slack), func(t *testing.T) {
					got := train(t, depth, managed, slack)
					for i := range want {
						if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
							t.Fatalf("weight %d: %v, want %v (bit-identical to depth 0 / raw / slack 0)", i, got[i], want[i])
						}
					}
				})
			}
		}
	}
}

// oneFlightPerLayer rebuilds a model around the same layers and weights
// with every top-level bilinear child wrapped in a Sequential of its own:
// no two bilinear layers are consecutive children any more, so nothing
// fuses and each layer flies alone — the per-layer reference of the facade.
func oneFlightPerLayer(m *Model) *Model {
	seq := nn.NewSequential(m.m.Stack.Name())
	for _, l := range m.m.Stack.Layers() {
		if _, ok := l.(nn.Linear); ok {
			l = nn.NewSequential(l.Name(), l)
		}
		seq.Append(l)
	}
	return &Model{m: nn.NewModel(m.m.Name, m.m.InShape, m.m.Classes, seq)}
}

// TestSystemFusesConsecutiveBilinearLayers: a System with the default
// Config flies every run of consecutive bilinear layers as one gang flight,
// so which models change is a property of their layer structure. DeepMLP's
// two 3-layer Dense runs and its head make 3 flights per pass — 6 per
// virtual batch, 4 of them fused blocks — with weights bit-identical to the
// same layers flown one per flight. VGG and TinyCNN put a TEE-side layer
// between every two bilinear layers: they fuse nothing and keep one flight
// per layer per pass.
func TestSystemFusesConsecutiveBilinearLayers(t *testing.T) {
	batch := SyntheticDataset(8, 4, 1, 8, 8, 5)
	const steps, vbatches = 2, 4 // 8 examples at K = 2 per step
	per := func(n int64) int64 { return n * steps * vbatches }
	train := func(t *testing.T, model *Model) TrainPhaseStats {
		t.Helper()
		sys, err := NewSystem(model, Config{})
		if err != nil {
			t.Fatal(err)
		}
		defer sys.Close()
		for step := 0; step < steps; step++ {
			if _, err := sys.TrainBatch(batch); err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
		}
		return sys.TrainPhases()
	}

	t.Run("deep", func(t *testing.T) {
		fused, ref := DeepMLP(1, 8, 8, 4, 16, 1), oneFlightPerLayer(DeepMLP(1, 8, 8, 4, 16, 1))
		ps, refPS := train(t, fused), train(t, ref)
		if ps.Flights != per(6) || ps.FusedBlocks != per(4) || ps.FusedLayers != per(12) || ps.Offloads != per(14) {
			t.Fatalf("fused: %d flights / %d blocks / %d fused layers / %d offloads, want %d/%d/%d/%d",
				ps.Flights, ps.FusedBlocks, ps.FusedLayers, ps.Offloads, per(6), per(4), per(12), per(14))
		}
		if refPS.Flights != per(14) || refPS.FusedBlocks != 0 {
			t.Fatalf("per-layer reference: %d flights / %d blocks, want %d/0", refPS.Flights, refPS.FusedBlocks, per(14))
		}
		got, want := fused.Weights(), ref.Weights()
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("weight %d: fused %v, per-layer %v", i, got[i], want[i])
			}
		}
	})
	for _, c := range []struct {
		arch    string
		linears int64
	}{{"vgg", 6}, {"tiny", 2}} {
		t.Run(c.arch, func(t *testing.T) {
			model, err := BuildModel(c.arch, 1)
			if err != nil {
				t.Fatal(err)
			}
			ps := train(t, model)
			if ps.FusedBlocks != 0 || ps.Flights != per(2*c.linears) || ps.Offloads != per(2*c.linears) {
				t.Fatalf("%d flights / %d blocks / %d offloads, want %d/0/%d (one flight per layer per pass)",
					ps.Flights, ps.FusedBlocks, ps.Offloads, per(2*c.linears), per(2*c.linears))
			}
		})
	}
}

// TestSystemCloseEndsGoroutines: every System runs background noise
// generators for its training and inference runtimes; Close must stop them,
// so a full NewSystem → TrainBatch → Predict → Close cycle leaves the
// goroutine count where it found it.
func TestSystemCloseEndsGoroutines(t *testing.T) {
	baseline := runtime.NumGoroutine()
	sys, err := NewSystem(TinyCNN(1, 8, 8, 4, 1), Config{VirtualBatch: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	data := SyntheticDataset(4, 4, 1, 8, 8, 5)
	if _, err := sys.TrainBatch(data); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Predict([][]float64{data[0].Image, data[1].Image}); err != nil {
		t.Fatal(err)
	}
	sys.Close()
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d after Close vs %d before NewSystem", runtime.NumGoroutine(), baseline)
		}
		time.Sleep(time.Millisecond)
	}
	if _, err := sys.TrainBatch(data); err == nil {
		t.Fatal("TrainBatch after Close must fail")
	}
}
