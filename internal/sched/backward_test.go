package sched

import (
	"errors"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"darknight/internal/dataset"
	"darknight/internal/field"
	"darknight/internal/fleet"
	"darknight/internal/gpu"
	"darknight/internal/masking"
	"darknight/internal/nn"
	"darknight/internal/tensor"
)

// deepMLPLinears is the number of bilinear layers in nn.DeepMLP.
const deepMLPLinears = 7

// guard bounds a wait the test expects to end: a regression fails the test
// instead of hanging it. It never paces the test.
const guard = 30 * time.Second

// gradLog records when every weight-gradient job reaches a device.
type gradLog struct {
	gpu.Device
	mu    *sync.Mutex
	calls map[int][]time.Time // by device ID
}

func (d gradLog) GradWeights(key string, kernel gpu.BilinearKernel, delta field.Vec) (field.Vec, error) {
	d.mu.Lock()
	d.calls[d.ID()] = append(d.calls[d.ID()], time.Now())
	d.mu.Unlock()
	return d.Device.GradWeights(key, kernel, delta)
}

// sameBits asserts two models' weights are equal bit for bit.
func sameBits(t *testing.T, tag string, a, b *nn.Model) {
	t.Helper()
	ap, bp := a.Params(), b.Params()
	if len(ap) != len(bp) {
		t.Fatalf("%s: param count %d vs %d", tag, len(ap), len(bp))
	}
	for pi := range ap {
		for i, v := range ap[pi].W.Data {
			if math.Float64bits(v) != math.Float64bits(bp[pi].W.Data[i]) {
				t.Fatalf("%s: param %s weight[%d]: %v != %v", tag, ap[pi].Name, i, v, bp[pi].W.Data[i])
			}
		}
	}
}

// TestBackwardShipsEveryLayerBeforeGathering pins the overlapped backward
// pass: every layer's gradient jobs reach every slot before the first
// backward gather returns — a walk that gathered each layer before shipping
// the next would stall at the first one. With E=2 and slack 1 the forward
// decodes around slot 2, so one slow device there (gpu.NewSlow: its trip
// runs each job at once and holds the answers until its launch latency has
// passed since its first job) never delays the forward. It does delay the
// first backward gather: slot 2 serves both decode windows, so no window
// completes before the latency has passed since the step began. Every
// gradient job must therefore reach its device before then — 7 layers × 2
// windows × S = 3 equations per virtual batch, 14 of them on slot 2 — and
// the trained weights must equal internal/spec/stack's bit for bit. The
// whole batch rides one gang flight (the arms are named "fused-" after the
// runtime that introduced it).
func TestBackwardShipsEveryLayerBeforeGathering(t *testing.T) {
	cfg := Config{VirtualBatch: 2, Collusion: 1, Redundancy: 2, StragglerSlack: 1, Seed: 3}
	const gang, slowSlot, latency = 5, 2, 300 * time.Millisecond
	model := func() *nn.Model { return nn.DeepMLP(1, 8, 8, 4, 12, rand.New(rand.NewSource(42))) }

	// devices returns n logging devices, those at slot 2 of each gang slow.
	devices := func(n int) ([]gpu.Device, map[int][]time.Time, *sync.Mutex) {
		mu, calls := &sync.Mutex{}, map[int][]time.Time{}
		devs := honestDevices(n)
		for i := range devs {
			devs[i] = gradLog{Device: devs[i], mu: mu, calls: calls}
			if i%gang == slowSlot {
				devs[i] = gpu.NewSlow(devs[i], latency)
			}
		}
		return devs, calls, mu
	}
	// check trains on the devices and asserts every gradient job arrived
	// within the latency of the step's start.
	check := func(t *testing.T, vbatches int, calls map[int][]time.Time, mu *sync.Mutex, m *nn.Model, train func([]dataset.Example) error) {
		t.Helper()
		batch := trainData(vbatches * cfg.VirtualBatch)
		control := model()
		specTrain(control, cfg.VirtualBatch, batch, 1)
		start := time.Now()
		if err := train(batch); err != nil {
			t.Fatal(err)
		}
		sameBits(t, "delayed", control, m)
		mu.Lock()
		defer mu.Unlock()
		total := 0
		for id, at := range calls {
			total += len(at)
			if id%gang == slowSlot && len(at) != 2*deepMLPLinears {
				t.Fatalf("slow device %d ran %d gradient jobs, want %d (both windows of every layer)", id, len(at), 2*deepMLPLinears)
			}
			for _, c := range at {
				if c.Sub(start) >= latency {
					t.Fatalf("device %d ran a gradient job %v into the step: after the first backward gather could return", id, c.Sub(start))
				}
			}
		}
		if want := vbatches * deepMLPLinears * 2 * 3; total != want {
			t.Fatalf("%d gradient jobs reached the devices, want %d", total, want)
		}
	}

	t.Run("fused-serial", func(t *testing.T) {
		devs, calls, mu := devices(gang)
		m := model()
		trn, err := NewTrainer(cfg, m, gpu.NewCluster(devs...), nil)
		if err != nil {
			t.Fatal(err)
		}
		defer trn.Close()
		check(t, 1, calls, mu, m, func(batch []dataset.Example) error {
			_, _, err := trn.TrainLargeBatch(batch, nn.NewSGD(0.05, 0.9), 0)
			return err
		})
	})

	// Two virtual batches at once, each on its own fleet gang: the first
	// grant picks devices 0–4, the second 5–9, so slot 2 is slow in both.
	t.Run("fused-pipeline-depth2-fleet", func(t *testing.T) {
		devs, calls, mu := devices(2 * gang)
		m := model()
		pipe, err := NewTrainPipeline(cfg, m, nil, "ship/", 2)
		if err != nil {
			t.Fatal(err)
		}
		defer pipe.Close()
		src := &managerSource{m: fleet.NewManager(gpu.NewCluster(devs...), fleet.Config{}), gang: gang}
		check(t, 2, calls, mu, m, func(batch []dataset.Example) error {
			_, _, err := pipe.TrainLargeBatch(src, batch, nn.NewSGD(0.05, 0.9), 0)
			return err
		})
	})
}

// settleBarrier makes a backward tamper on lin3 deterministic to detect.
// Detection needs both decode windows of the layer complete when it is
// gathered, and a gather wakes on the first complete window, so lin3's
// gather must start after every answer of it has landed. When the first
// lin4 job reaches the tampering slot — a slot both windows share, so no
// lin4 gather can return without it — the barrier takes the TEE token the
// engine released for its backward gathers, and holds it until every gang
// slot has started on lin2, shipped after lin3: slot queues are FIFO, so
// that proves every slot delivered all of its lin3 answers. Until then the
// engine cannot leave the gather it is in. The tampering slot corrupts
// its lin3 equations.
type settleBarrier struct {
	tee    *sync.Mutex      // the pipeline's TEE token
	src    *recordingSource // the gang's slot order
	tamper int              // the tampering slot

	mu      sync.Mutex
	took    bool
	started map[int]bool // slots that reached lin2
	gang    int
}

func newSettleBarrier(gang, tamper int) *settleBarrier {
	return &settleBarrier{tamper: tamper, started: map[int]bool{}, gang: gang}
}

// barrierDevice routes one device's gradient jobs through the barrier,
// reading its gang slot from the grant's slot order.
type barrierDevice struct {
	gpu.Device
	b *settleBarrier
}

func (d barrierDevice) GradWeights(key string, kernel gpu.BilinearKernel, delta field.Vec) (field.Vec, error) {
	b := d.b
	slot := b.src.slotOf(d.ID())
	switch {
	case strings.HasSuffix(key, "/lin4") && slot == b.tamper:
		b.mu.Lock()
		take := !b.took
		b.took = true
		b.mu.Unlock()
		if take {
			b.tee.Lock()
		}
	case strings.HasSuffix(key, "/lin2"):
		b.mu.Lock()
		if !b.started[slot] {
			b.started[slot] = true
			if len(b.started) == b.gang {
				b.tee.Unlock()
			}
		}
		b.mu.Unlock()
	}
	y, err := d.Device.GradWeights(key, kernel, delta)
	if err == nil && slot == b.tamper && strings.HasSuffix(key, "/lin3") {
		y = y.Clone()
		y[0] = field.Add(y[0], 1)
	}
	return y, err
}

// recordingSource is a managerSource that keeps the slot order of the
// gang it granted last and the culprits each batch reported on release.
type recordingSource struct {
	managerSource
	mu       sync.Mutex
	order    []int // device IDs in gang-slot order
	culprits []int
}

func (s *recordingSource) Acquire() (Fleet, error) {
	f, err := s.managerSource.Acquire()
	if err == nil {
		s.mu.Lock()
		s.order = f.(*fleet.Grant).DeviceIDs()
		s.mu.Unlock()
	}
	return f, err
}

// slotOf returns the gang slot the device serves in the last grant, or -1.
func (s *recordingSource) slotOf(id int) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return slices.Index(s.order, id)
}

func (s *recordingSource) Release(f Fleet, culprits []int, err error) {
	s.mu.Lock()
	s.culprits = append(s.culprits, culprits...)
	s.mu.Unlock()
	s.managerSource.Release(f, culprits, err)
}

// TestBackwardTamperFailsAndSettles pins the failure path of the overlapped
// backward: a device tampering with the gradient equations of a middle
// layer (lin3 of DeepMLP) fails the step with an integrity error naming
// that layer — the first failing layer in walk order, as when every layer
// was gathered before the next shipped — at E = 1 and at E = 2 alike
// (straggler slack 1, so each layer ships both decode windows and a
// complete pair is compared). The backward decode attributes no culprits,
// so none reach the fleet. The batch's flight must be ended: the grant's
// release waits for it, so the step returning at all proves it, and the
// fleet must end with no device leased, no tenant holding a gang, and no
// goroutine left behind.
func TestBackwardTamperFailsAndSettles(t *testing.T) {
	for _, c := range []struct {
		name   string
		e      int
		tamper int // a slot both windows share
	}{
		{"E1", 1, 1},
		{"E2", 2, 2},
	} {
		t.Run(c.name, func(t *testing.T) {
			baseline := runtime.NumGoroutine()
			cfg := Config{VirtualBatch: 2, Collusion: 1, Redundancy: c.e, StragglerSlack: 1, Seed: 3}
			gang := cfg.VirtualBatch + cfg.Collusion + c.e
			b := newSettleBarrier(gang, c.tamper)
			devs := honestDevices(gang)
			for i := range devs {
				devs[i] = barrierDevice{Device: devs[i], b: b}
			}
			fm := fleet.NewManager(gpu.NewCluster(devs...), fleet.Config{})
			src := &recordingSource{managerSource: managerSource{m: fm, gang: gang}}
			pipe, err := NewTrainPipeline(cfg, nn.DeepMLP(1, 8, 8, 4, 12, rand.New(rand.NewSource(42))), nil, "tamper/", 2)
			if err != nil {
				t.Fatal(err)
			}
			b.tee, b.src = &pipe.tee, src

			done := make(chan error, 1)
			go func() {
				_, _, err := pipe.TrainLargeBatch(src, trainData(cfg.VirtualBatch), nn.NewSGD(0.05, 0), 0)
				done <- err
			}()
			select {
			case err = <-done:
			case <-time.After(guard):
				t.Fatal("step never returned: a backward flight was left open and the grant release is waiting on it")
			}
			pipe.Close()

			if !errors.Is(err, masking.ErrIntegrity) {
				t.Fatalf("step error = %v, want an integrity violation", err)
			}
			if !strings.Contains(err.Error(), `/lin3"`) {
				t.Fatalf("step error %q does not name the tampered layer lin3", err)
			}
			if len(src.culprits) != 0 {
				t.Fatalf("backward tamper reported culprits %v; the backward decode attributes none", src.culprits)
			}
			st := fm.Stats()
			if st.AsyncDispatches != 1 {
				t.Fatalf("%d flights folded into released grants, want 1 (the batch's)", st.AsyncDispatches)
			}
			for _, d := range st.Devices {
				if d.Leased {
					t.Fatalf("device %d still leased after the step: %+v", d.ID, st)
				}
			}
			for _, tu := range st.Tenants {
				if tu.InFlight != 0 || tu.Queued != 0 {
					t.Fatalf("tenant %s still holds devices: %+v", tu.Name, tu)
				}
			}
			// Jobs the failed settle no longer waited for finish on their own.
			deadline := time.Now().Add(guard)
			for runtime.NumGoroutine() > baseline {
				if time.Now().After(deadline) {
					t.Fatalf("goroutines leaked: %d now vs %d before", runtime.NumGoroutine(), baseline)
				}
				time.Sleep(time.Millisecond)
			}
		})
	}
}

// TestTrainStepCountsEachExampleOnce counts the batch-norm running-statistics
// updates one TrainLargeBatch applies on ResNet: one per example and channel,
// as nn.Model.TrainBatch makes, however many times the backward re-primes a
// layer's cache. The count is read off the running means. With the learning
// rate at 0 a second step on the same batch replays the same n updates per
// channel, and an exponential moving average of momentum α started at 0
// reads S after them and S·(1 + (1−α)ⁿ) after twice them, so each channel's
// two means give its n.
func TestTrainStepCountsEachExampleOnce(t *testing.T) {
	const k, examples, momentum = 2, 4, 0.1 // momentum: nn.NewBatchNorm's
	model := nn.ResNet50Scaled(1, 8, 8, 4, 1, rand.New(rand.NewSource(42)))
	tr, err := NewTrainer(Config{VirtualBatch: k, Collusion: 1, Seed: 3}, model, gpu.NewHonestCluster(k+1), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	batch := tinyData().Items[:examples]
	// runningMeans reads each channel's running mean through an eval-mode
	// forward of zeros and of ones: with γ = 1 and β = 0 they give
	// −mean·s and (1 − mean)·s for s = 1/√(var + ε).
	runningMeans := func() []float64 {
		var means []float64
		for _, bn := range model.BatchNorms() {
			shape := bn.OutShape()
			ones := tensor.New(shape...)
			ones.Fill(1)
			f0 := bn.Forward(tensor.New(shape...), false).Data
			f1 := bn.Forward(ones, false).Data
			plane := shape[1] * shape[2]
			for c := 0; c < shape[0]; c++ {
				means = append(means, -f0[c*plane]/(f1[c*plane]-f0[c*plane]))
			}
		}
		return means
	}
	step := func() []float64 {
		if _, _, err := tr.TrainLargeBatch(batch, nn.NewSGD(0, 0), 0); err != nil {
			t.Fatal(err)
		}
		return runningMeans()
	}
	once, twice := step(), step()
	updates := 0
	for c := range once {
		n := math.Round(math.Log(twice[c]/once[c]-1) / math.Log(1-momentum))
		if math.IsNaN(n) {
			t.Fatalf("channel %d: running means %v then %v read no update count", c, once[c], twice[c])
		}
		updates += int(n)
	}
	if want := examples * len(once); updates != want {
		t.Fatalf("one step made %d running-statistics updates, want %d (%d examples × %d channels)",
			updates, want, examples, len(once))
	}
}
