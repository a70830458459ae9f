package darknight

import (
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"

	"darknight/internal/masking"
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
	// The fields only a Server reads fail the build and name what reads
	// them, so a chaos switch or an objective cannot vanish silently.
	for _, c := range []struct {
		field string
		set   func(*Config)
	}{
		{"Chaos", func(c *Config) { c.Chaos = true }},
		{"Observability.SLO", func(c *Config) {
			c.Observability.SLO = SLOConfig{Objectives: []SLOObjective{{Tenant: "*", ErrorBudget: 0.01}}}
		}},
		{"Observability.SnapshotWeights", func(c *Config) { c.Observability.SnapshotWeights = true }},
	} {
		cfg := Config{EnclaveBytes: -1}
		c.set(&cfg)
		sys, err := NewSystem(model, cfg)
		if err == nil {
			sys.Close()
			t.Errorf("Config.%s set on a system: accepted", c.field)
			continue
		}
		if msg := err.Error(); !strings.Contains(msg, "Config."+c.field) || !strings.Contains(msg, "NewServer") {
			t.Errorf("Config.%s: error %q does not name the field and NewServer", c.field, msg)
		}
	}
}

// TestServerRejectsUnreadConfigFields: a field set on a server's embedded
// Config that NewServer would not read fails the build, and the error
// names what to set instead, so a straggler or spare setting cannot vanish
// silently.
func TestServerRejectsUnreadConfigFields(t *testing.T) {
	for _, c := range []struct {
		field string
		set   func(*Config)
		use   string
	}{
		{"SpareGPUs", func(c *Config) { c.SpareGPUs = 3 }, "ServerConfig.SpareGPUs"},
		{"SlowAll", func(c *Config) { c.SlowAll = true }, "ServerConfig.SlowAll"},
		{"StragglerSlack", func(c *Config) { c.StragglerSlack = 1 }, "ServerConfig.StragglerSlack"},
		{"Observability", func(c *Config) { c.Observability.SnapshotWeights = true }, "ServerConfig.Observability"},
		{"TrainPipelineDepth", func(c *Config) { c.TrainPipelineDepth = 2 }, "ServerConfig.PipelineDepth"},
		{"ManagedFleet", func(c *Config) { c.ManagedFleet = true }, "only tunes training"},
		{"LearningRate", func(c *Config) { c.LearningRate = 0.1 }, "only tunes training"},
		{"Momentum", func(c *Config) { c.Momentum = 0.9 }, "only tunes training"},
	} {
		cfg := ServerConfig{Config: Config{VirtualBatch: 2, Redundancy: 2, EnclaveBytes: -1}}
		c.set(&cfg.Config)
		srv, err := NewServer(func() *Model { return TinyCNN(1, 8, 8, 4, 1) }, cfg)
		if err == nil {
			srv.Close()
			t.Errorf("Config.%s set on a server: accepted", c.field)
			continue
		}
		if msg := err.Error(); !strings.Contains(msg, "Config."+c.field) || !strings.Contains(msg, c.use) {
			t.Errorf("Config.%s: error %q does not name the field and %q", c.field, msg, c.use)
		}
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

// TestSystemFliesOneFlightPerVirtualBatch: a System with the default Config
// flies each virtual batch — every offload of its forward and backward
// passes — as one gang flight, whatever the model's layer structure: DeepMLP's
// consecutive Dense runs, VGG's and TinyCNN's TEE-side layers between every
// two bilinear layers, ResNet's residual bodies and projection skips.
// Flights equal virtual batches; offloads are 2 × the bilinear layers per
// virtual batch.
func TestSystemFliesOneFlightPerVirtualBatch(t *testing.T) {
	batch := SyntheticDataset(8, 4, 1, 8, 8, 5)
	const steps, vbatches = 2, 4 // 8 examples at K = 2 per step
	per := func(n int64) int64 { return n * steps * vbatches }
	for _, c := range []struct {
		arch    string
		linears int64
	}{{"deep", 7}, {"vgg", 6}, {"tiny", 2}, {"resnet", 16}} {
		t.Run(c.arch, func(t *testing.T) {
			model, err := BuildModel(c.arch, 1)
			if err != nil {
				t.Fatal(err)
			}
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
			if ps := sys.TrainPhases(); ps.Flights != per(1) || ps.Offloads != per(2*c.linears) {
				t.Fatalf("%d flights / %d offloads, want %d/%d (one flight per virtual batch)",
					ps.Flights, ps.Offloads, per(1), per(2*c.linears))
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
