package slalom

import (
	"math"
	"math/rand"
	"testing"

	"darknight/internal/dataset"
	"darknight/internal/nn"
)

func TestSlalomInferenceMatchesFloat(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	model := nn.TinyCNN(1, 8, 8, 4, rng)
	data := dataset.SyntheticCIFAR(rand.New(rand.NewSource(2)), 20, 4, 1, 8, 8, 0.05)
	e := New(model, false, 3)
	for _, ex := range data.Items {
		got, err := e.Infer(ex.Image)
		if err != nil {
			t.Fatal(err)
		}
		want := nn.Argmax(model.Forward(ex.Image, false))
		if got != want {
			t.Fatalf("slalom pred %d, float pred %d", got, want)
		}
	}
	if e.stats.GPUJobs == 0 || e.stats.UnblindBytes == 0 {
		t.Fatalf("stats = %+v", e.stats)
	}
}

func TestSlalomWithIntegrity(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	model := nn.TinyCNN(1, 8, 8, 4, rng)
	data := dataset.SyntheticCIFAR(rand.New(rand.NewSource(5)), 5, 4, 1, 8, 8, 0.05)
	e := New(model, true, 6)
	for _, ex := range data.Items {
		if _, err := e.Infer(ex.Image); err != nil {
			t.Fatal(err)
		}
	}
	if e.stats.IntegrityChecks == 0 {
		t.Fatal("no integrity checks recorded")
	}
}

// TestSlalomCannotTrain demonstrates the paper's §7.2 argument: after a
// weight update, Slalom's precomputed unblinding factors decode garbage.
// DarKnight exists because of this failure mode.
func TestSlalomCannotTrain(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	model := nn.TinyCNN(1, 8, 8, 4, rng)
	e := New(model, false, 8)
	lin := model.LinearLayers()[0]

	x := make([]float64, lin.InLen())
	for i := range x {
		x[i] = rng.Float64()*0.5 - 0.25
	}
	// Fresh factors decode correctly.
	before := e.StaleDecode(0, lin, x)
	want := lin.LinearForwardFloat(x)
	for i := range want {
		if math.Abs(before[i]-want[i]) > 0.05 {
			t.Fatalf("fresh decode wrong at %d: %v vs %v", i, before[i], want[i])
		}
	}

	// "Train": apply a weight update, as every SGD step does.
	wd := lin.WeightData()
	for i := range wd {
		wd[i] += 0.1
	}

	// Stale factors now decode the WRONG result — and not by a rounding
	// margin: the error is the full W_delta·r term, which is uniform
	// field noise.
	after := e.StaleDecode(0, lin, x)
	wantNew := lin.LinearForwardFloat(x)
	var worst float64
	for i := range wantNew {
		if d := math.Abs(after[i] - wantNew[i]); d > worst {
			worst = d
		}
	}
	if worst < 1 {
		t.Fatalf("stale decode unexpectedly accurate (worst err %v) — Slalom would be trainable", worst)
	}

	// Re-precomputing (W·r inside SGX every batch) fixes decoding but is
	// exactly the cost §7.2 says defeats the offload.
	e.Precompute()
	fixed := e.StaleDecode(0, lin, x)
	for i := range wantNew {
		if math.Abs(fixed[i]-wantNew[i]) > 0.05 {
			t.Fatalf("re-precomputed decode wrong at %d", i)
		}
	}
}

func TestSlalomResidualModel(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	model := nn.ResNet50Scaled(1, 8, 8, 4, 1, rng)
	data := dataset.SyntheticCIFAR(rand.New(rand.NewSource(10)), 5, 4, 1, 8, 8, 0.05)
	e := New(model, false, 11)
	for _, ex := range data.Items {
		got, err := e.Infer(ex.Image)
		if err != nil {
			t.Fatal(err)
		}
		want := nn.Argmax(model.Forward(ex.Image, false))
		if got != want {
			t.Fatalf("slalom pred %d, float pred %d", got, want)
		}
	}
}
