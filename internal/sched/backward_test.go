package sched

import (
	"errors"
	"math"
	"math/rand"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"darknight/internal/field"
	"darknight/internal/fleet"
	"darknight/internal/gpu"
	"darknight/internal/nn"
)

// deepMLPLinears is the number of bilinear layers in nn.DeepMLP.
const deepMLPLinears = 7

// guard bounds a wait the test expects to end: a regression fails the test
// instead of hanging it. It never paces the test.
const guard = 30 * time.Second

// gradGate holds every weight-gradient job on a test-owned channel and
// reports each arrival before blocking.
type gradGate struct {
	gpu.Device
	arrived chan<- struct{}
	release <-chan struct{}
}

func (d gradGate) GradWeights(key string, kernel gpu.BilinearKernel, delta field.Vec) (field.Vec, error) {
	d.arrived <- struct{}{}
	<-d.release
	return d.Device.GradWeights(key, kernel, delta)
}

// sameBits asserts two models' weights are equal bit for bit.
func sameBits(t *testing.T, tag string, a, b *nn.Model) {
	t.Helper()
	ap, bp := a.Params(), b.Params()
	for pi := range ap {
		for i, v := range ap[pi].W.Data {
			if math.Float64bits(v) != math.Float64bits(bp[pi].W.Data[i]) {
				t.Fatalf("%s: param %s weight[%d]: %v != %v", tag, ap[pi].Name, i, v, bp[pi].W.Data[i])
			}
		}
	}
}

// TestBackwardShipsEveryLayerBeforeGathering pins the overlapped backward
// pass: with every device's gradient jobs held on a gate, one virtual
// batch's backward must put the jobs of every flight on the devices before
// any of them is released — a walk that gathered each flight before
// shipping the next would stall at the first one's gang. On the per-layer
// arm (perLayer) every layer is a flight, so all 7 × gang jobs arrive. Fused,
// a slot runs a flight's jobs in order, so what arrives is each of the 3
// flights' first job on every slot: 3 × gang. Once released, the trained
// weights must equal an ungated run's bit for bit.
func TestBackwardShipsEveryLayerBeforeGathering(t *testing.T) {
	cfg := Config{VirtualBatch: 2, Collusion: 1, Seed: 3}
	const gang = 3
	model := func() *nn.Model { return nn.DeepMLP(1, 8, 8, 4, 12, rand.New(rand.NewSource(42))) }
	batch := trainData(2 * cfg.VirtualBatch)

	control := model()
	ctrl, err := NewTrainer(cfg, control, gpu.NewHonestCluster(gang), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer ctrl.Close()
	if _, _, err := ctrl.TrainLargeBatch(batch, nn.NewSGD(0.05, 0.9), 0); err != nil {
		t.Fatal(err)
	}

	// gated returns n honest devices behind one gate, the arrival stream
	// and the release switch. The stream holds one token per gradient job
	// the run sends, so reporting an arrival never blocks a device.
	gated := func(n int) ([]gpu.Device, <-chan struct{}, func()) {
		arrived := make(chan struct{}, len(batch)/cfg.VirtualBatch*deepMLPLinears*gang)
		release := make(chan struct{})
		devs := honestDevices(n)
		for i := range devs {
			devs[i] = gradGate{Device: devs[i], arrived: arrived, release: release}
		}
		return devs, arrived, func() { close(release) }
	}
	// run trains on the gated devices, waits until want gradient jobs have
	// arrived, and only then opens the gate.
	run := func(t *testing.T, arrived <-chan struct{}, release func(), want int, train func() error) {
		t.Helper()
		done := make(chan error, 1)
		go func() { done <- train() }()
		timeout := time.After(guard)
		for n := 0; n < want; n++ {
			select {
			case <-arrived:
			case err := <-done:
				t.Fatalf("training returned (%v) with %d of %d gradient jobs ever held", err, n, want)
			case <-timeout:
				release()
				t.Fatalf("only %d of %d gradient jobs reached the devices before any was released", n, want)
			}
		}
		release()
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
		case <-time.After(guard):
			t.Fatal("training did not finish after the gate opened")
		}
	}

	for _, arm := range []struct {
		prefix  string // subtest name prefix
		fuse    bool
		flights int // backward flights of one virtual batch
	}{
		{"", false, deepMLPLinears},
		{"fused-", true, 3},
	} {
		want := arm.flights * gang
		t.Run(arm.prefix+"serial", func(t *testing.T) {
			devs, arrived, release := gated(gang)
			m := model()
			trn, err := NewTrainer(cfg, m, gpu.NewCluster(devs...), nil)
			if err != nil {
				t.Fatal(err)
			}
			defer trn.Close()
			if !arm.fuse {
				trn.perLayer()
			}
			run(t, arrived, release, want, func() error {
				_, _, err := trn.TrainLargeBatch(batch, nn.NewSGD(0.05, 0.9), 0)
				return err
			})
			sameBits(t, "serial", control, m)
		})

		t.Run(arm.prefix+"pipeline-depth2-fleet", func(t *testing.T) {
			devs, arrived, release := gated(2 * gang)
			m := model()
			pipe, err := NewTrainPipeline(cfg, m, nil, "gate/", 2)
			if err != nil {
				t.Fatal(err)
			}
			defer pipe.Close()
			if !arm.fuse {
				pipe.perLayer()
			}
			src := &managerSource{m: fleet.NewManager(gpu.NewCluster(devs...), fleet.Config{}), gang: gang}
			run(t, arrived, release, want, func() error {
				_, _, err := pipe.TrainLargeBatch(src, batch, nn.NewSGD(0.05, 0.9), 0)
				return err
			})
			sameBits(t, "pipeline", control, m)
		})
	}
}

// settleBarrier makes a backward tamper on one layer of a fused block
// deterministic to detect. Detection needs both decode windows of the
// layer complete when it is gathered, and a gather wakes on the first
// complete window, so the gather must start after every answer has landed.
// The barrier holds the layer settled just before the target (held, in
// another flight) until every gang slot has started on the layer shipped
// after the target in the target's block (next): slot queues are FIFO
// within a flight, so that proves every slot delivered all of its target
// answers. One slot tampers with the target layer's equations.
type settleBarrier struct {
	held, target, next string // layer key suffixes, e.g. "/lin4", "/lin3", "/lin2"
	tamper             int    // the tampering slot

	mu      sync.Mutex
	started map[int]bool // slots that reached next
	gang    int
	open    chan struct{}
}

func newSettleBarrier(held, target, next string, gang, tamper int) *settleBarrier {
	return &settleBarrier{held: held, target: target, next: next, tamper: tamper,
		started: map[int]bool{}, gang: gang, open: make(chan struct{})}
}

// barrierDevice routes one device's gradient jobs through the barrier,
// reading the gang slot from the fleet's slot-scoped storage key.
type barrierDevice struct {
	gpu.Device
	b *settleBarrier
}

func (d barrierDevice) GradWeights(key string, kernel gpu.BilinearKernel, delta field.Vec) (field.Vec, error) {
	layer, slotStr, _ := strings.Cut(key, "#s")
	slot, _ := strconv.Atoi(slotStr)
	b := d.b
	switch {
	case strings.HasSuffix(layer, b.held):
		<-b.open
	case strings.HasSuffix(layer, b.next):
		b.mu.Lock()
		if !b.started[slot] {
			b.started[slot] = true
			if len(b.started) == b.gang {
				close(b.open)
			}
		}
		b.mu.Unlock()
	}
	y, err := d.Device.GradWeights(key, kernel, delta)
	if err == nil && slot == b.tamper && strings.HasSuffix(layer, b.target) {
		y = y.Clone()
		y[0] = field.Add(y[0], 1)
	}
	return y, err
}

// recordingSource is a managerSource that keeps the culprits each batch
// reported on release.
type recordingSource struct {
	managerSource
	mu       sync.Mutex
	culprits []int
}

func (s *recordingSource) Release(f Fleet, culprits []int, err error) {
	s.mu.Lock()
	s.culprits = append(s.culprits, culprits...)
	s.mu.Unlock()
	s.managerSource.Release(f, culprits, err)
}

// TestBackwardTamperFailsAndSettles pins the failure path of the overlapped
// backward: a device tampering with the gradient equations of a middle
// layer (lin3, the last layer of DeepMLP's first fused block) fails the
// step with an integrity error naming that layer — the first failing layer
// in walk order, as when every layer was gathered before the next shipped —
// at E = 1 and at E = 2 alike (straggler slack 1, so each layer ships both
// decode windows and a complete pair is compared). The backward decode attributes no culprits,
// so none reach the fleet. Every flight the pass opened must be ended: the
// grant's release waits for them, so the step returning at all proves it,
// and the fleet must end with no device leased, no tenant holding a gang,
// and no goroutine left behind.
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
			b := newSettleBarrier("/lin4", "/lin3", "/lin2", gang, c.tamper)
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

			if !errors.Is(err, ErrIntegrity) {
				t.Fatalf("step error = %v, want an integrity violation", err)
			}
			if !strings.Contains(err.Error(), `/lin3"`) {
				t.Fatalf("step error %q does not name the tampered layer lin3", err)
			}
			if len(src.culprits) != 0 {
				t.Fatalf("backward tamper reported culprits %v; the backward decode attributes none", src.culprits)
			}
			st := fm.Stats()
			if st.AsyncDispatches != 6 {
				t.Fatalf("%d flights folded into released grants, want 6 (3 forward + 3 backward)", st.AsyncDispatches)
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
