package sched

import (
	"context"
	"errors"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"darknight/internal/field"
	"darknight/internal/fleet"
	"darknight/internal/gpu"
	"darknight/internal/nn"
	"darknight/internal/spec/stack"
)

// TestOneFlightPerVirtualBatch is the flight-count gate: a forward pass
// rides exactly one gang flight, whatever the model's structure — DeepMLP's
// 7 Dense layers, and ResNet's convolutions inside residual bodies and
// projection skips — with one offload per bilinear layer, and its logits
// are internal/spec/stack's bit for bit.
func TestOneFlightPerVirtualBatch(t *testing.T) {
	images := make([][]float64, 2)
	rng := rand.New(rand.NewSource(9))
	for i := range images {
		img := make([]float64, 64)
		for j := range img {
			img[j] = rng.Float64()
		}
		images[i] = img
	}
	for _, c := range []struct {
		arch  string
		model func() *nn.Model
	}{
		{"deep", func() *nn.Model { return nn.DeepMLP(1, 8, 8, 4, 12, rand.New(rand.NewSource(42))) }},
		{"resnet", func() *nn.Model { return nn.ResNet50Scaled(1, 8, 8, 4, 1, rand.New(rand.NewSource(42))) }},
	} {
		t.Run(c.arch, func(t *testing.T) {
			model := c.model()
			linears := int64(len(model.LinearLayers()))
			inf, err := NewInferencer(Config{VirtualBatch: 2, Collusion: 1, Seed: 1}, model, nil, "")
			if err != nil {
				t.Fatal(err)
			}
			defer inf.Close()
			logits, err := inf.Forward(gpu.NewHonestCluster(3), images)
			if err != nil {
				t.Fatal(err)
			}
			sameLogits(t, c.arch, 0, stack.New(c.model(), 2).Forward(images), logits)
			if ps := inf.PhaseStats(); ps.Flights != 1 || ps.Offloads != linears {
				t.Fatalf("forward: %d flights / %d offloads, want 1/%d", ps.Flights, ps.Offloads, linears)
			}
		})
	}
}

// TestBatchFlightTrainingMatchesSpec is the one-flight-per-batch
// equivalence gate: across K/E/slack operating points — raw shared
// cluster, fleet-managed gang grants, the straggler-tolerant quorum and
// dual-window gathers with a deterministically slow device, speculation to
// a spare, and ResNet's residual bodies and skips — training on one flight
// per virtual batch, one offload per bilinear layer and pass, must report
// the losses and leave the weights of internal/spec/stack bit for bit.
// Slot queues are FIFO, so no device ever runs a gradient job before its
// own forward store.
func TestBatchFlightTrainingMatchesSpec(t *testing.T) {
	deep := func(rng *rand.Rand) *nn.Model { return nn.DeepMLP(1, 8, 8, 4, 12, rng) }
	combos := []struct {
		name           string
		k, m, e, slack int
		slow           []int // cluster indices of slow devices
		slowBy         time.Duration
		spares         int           // devices beyond the gang
		speculate      time.Duration // fleet.Config.SpeculateAfter
		fleetManaged   bool
		model          func(*rand.Rand) *nn.Model // nil: DeepMLP
	}{
		{name: "K2-M1-E0-cluster", k: 2, m: 1, e: 0},
		{name: "K3-M1-E1-fleet", k: 3, m: 1, e: 1, fleetManaged: true},
		{name: "K2-M1-E2-slack1-slow", k: 2, m: 1, e: 2, slack: 1, slow: []int{2}, slowBy: time.Millisecond, fleetManaged: true},
		// The slow device is exclusive to the primary backward window, so
		// the backward decodes from the secondary one.
		{name: "K2-M1-E2-slack1-slow-first", k: 2, m: 1, e: 2, slack: 1, slow: []int{0}, slowBy: time.Millisecond, fleetManaged: true},
		// Two slow devices: no forward quorum of 4 forms from the gang
		// alone, so each batch's first layers need speculation to a spare.
		{name: "K2-M1-E2-slack1-speculate", k: 2, m: 1, e: 2, slack: 1, slow: []int{1, 3}, slowBy: 8 * time.Millisecond,
			spares: 2, speculate: 500 * time.Microsecond, fleetManaged: true},
		{name: "resnet-K2-M1-E2-slack1-slow", k: 2, m: 1, e: 2, slack: 1, slow: []int{2}, slowBy: time.Millisecond, fleetManaged: true,
			model: func(rng *rand.Rand) *nn.Model { return nn.ResNet50Scaled(1, 8, 8, 4, 1, rng) }},
		// train_flight's shape: every device slow, so each batch's first
		// answers are all held by launches, and answers that miss a quorum
		// land late, to be recycled when the flight is released.
		{name: "K2-M1-E2-slack1-SlowAll", k: 2, m: 1, e: 2, slack: 1, slow: []int{0, 1, 2, 3, 4}, slowBy: time.Millisecond, fleetManaged: true},
	}
	for _, c := range combos {
		t.Run(c.name, func(t *testing.T) {
			gang := c.k + c.m + c.e
			const steps, vbatches = 2, 4
			batch := trainData(vbatches * c.k)
			build := c.model
			if build == nil {
				build = deep
			}
			specModel := build(rand.New(rand.NewSource(42)))
			specLosses := specTrain(specModel, c.k, batch, steps)

			cfg := Config{VirtualBatch: c.k, Collusion: c.m, Redundancy: c.e,
				StragglerSlack: c.slack, Seed: 1}
			devs := honestDevices(gang + c.spares)
			for _, i := range c.slow {
				devs[i] = gpu.NewSlow(devs[i], c.slowBy)
			}
			cluster := gpu.NewCluster(devs...)
			model := build(rand.New(rand.NewSource(42)))
			pipe, err := NewTrainPipeline(cfg, model, nil, 2)
			if err != nil {
				t.Fatal(err)
			}
			defer pipe.Close()
			var src GangSource = SingleFleetSource{F: cluster}
			var fm *fleet.Manager
			if c.fleetManaged {
				fm = fleet.NewManager(cluster, fleet.Config{SpeculateAfter: c.speculate})
				src = &managerSource{m: fm, gang: gang}
			}
			opt := nn.NewSGD(0.05, 0.9)
			for step := 0; step < steps; step++ {
				loss, _, err := pipe.TrainLargeBatch(src, batch, opt, 0)
				if err != nil {
					t.Fatal(err)
				}
				if loss != specLosses[step] {
					t.Fatalf("step %d: loss %v on one flight per batch, spec %v", step, loss, specLosses[step])
				}
			}
			sameBits(t, c.name, specModel, model)
			ps := pipe.PhaseStats()
			if want := int64(steps * vbatches); ps.Flights != want {
				t.Fatalf("%d flights, want %d (one per virtual batch)", ps.Flights, want)
			}
			if want := int64(steps*vbatches*2) * int64(len(model.LinearLayers())); ps.Offloads != want {
				t.Fatalf("%d offloads, want %d (one per bilinear layer and pass)", ps.Offloads, want)
			}
			if c.slack > 0 && len(c.slow) > 0 && len(c.slow) < gang {
				// A slow slot misses the quorum of every batch's first
				// layers (its trip holds answers for its launch latency),
				// so the gathers must have left straggler marks — proof the
				// straggler-tolerant path ran, not wait-for-all. With every
				// device slow, whether one misses a quorum is timing.
				if st := fm.Stats(); st.StragglerEvents == 0 {
					t.Fatalf("slack combo never exercised the quorum path: %+v", st)
				}
			}
			if c.speculate > 0 {
				if st := fm.Stats(); st.Speculations == 0 {
					t.Fatalf("no lagging share was re-dispatched to a spare: %+v", st)
				}
			}
		})
	}
}

// TestForwardReturnsAroundBlockedDevice is the regression test for the
// straggler stall: with E=2 and slack 1, a gang in which one device's
// answers land an hour late must still serve a forward pass on its batch
// flight, with internal/spec/stack's logits, and hand its grant back, all
// while that device's answers are still held. A flight whose End waited
// for every answer would hang here: the forward would wait out the
// laggard its quorum gathers had already decoded around.
func TestForwardReturnsAroundBlockedDevice(t *testing.T) {
	images := [][]float64{trainData(2)[0].Image, trainData(2)[1].Image}
	const gang = 5 // K=2, M=1, E=2
	model := func() *nn.Model { return nn.DeepMLP(1, 8, 8, 4, 12, rand.New(rand.NewSource(42))) }
	devs := honestDevices(gang)
	devs[3] = hourLate(devs[3])
	fm := fleet.NewManager(gpu.NewCluster(devs...), fleet.Config{})
	inf, err := NewInferencer(Config{VirtualBatch: 2, Redundancy: 2, StragglerSlack: 1, Seed: 1}, model(), nil, "blk/")
	if err != nil {
		t.Fatal(err)
	}
	defer inf.Close()
	grant, err := fm.Acquire(context.Background(), "t", gang)
	if err != nil {
		t.Fatal(err)
	}
	got, err := inf.Forward(grant, images)
	grant.Release()
	if err != nil {
		t.Fatal(err)
	}
	// Everything above returned with device 3's answers still held.
	sameLogits(t, "around the blocked device", 0, stack.New(model(), 2).Forward(images), got)
	if ps := inf.PhaseStats(); ps.Flights != 1 {
		t.Fatalf("%d flights, want 1", ps.Flights)
	}
	if st := fm.Stats(); st.StragglerEvents != deepMLPLinears {
		t.Fatalf("%d straggler brands, want one per layer (%d)", st.StragglerEvents, deepMLPLinears)
	}
}

// lateDevice logs every forward job it is sent; on the job for layer
// lin<late> it sleeps until after the batch deadline first.
type lateDevice struct {
	gpu.Device
	late  int // 0: never late
	until time.Time
	log   *layerLog
}

func (d lateDevice) LinearForward(kernel gpu.LinearKernel, x field.Vec) field.Vec {
	if d.log.add(d.ID()) == d.late {
		time.Sleep(time.Until(d.until) + time.Millisecond)
	}
	return d.Device.LinearForward(kernel, x)
}

// layerLog counts the forward jobs each device was sent. An inference
// batch sends each gang device one job per layer, in layer order, so a
// device's n-th job is its job for lin<n>.
type layerLog struct {
	mu   sync.Mutex
	jobs map[int]int // by device ID
}

// add counts one job sent to device id and returns its layer.
func (l *layerLog) add(id int) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.jobs[id]++
	return l.jobs[id]
}

// count returns how many devices were sent their job for lin<lin>.
func (l *layerLog) count(lin int) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := 0
	for _, jobs := range l.jobs {
		if jobs >= lin {
			n++
		}
	}
	return n
}

// TestDeadlineChecksEveryLayerOfBatchFlight pins the deadline contract on
// the batch flight: the gate runs before every layer ships, not once per
// flight. One device answers DeepMLP's lin1 only
// after the batch's deadline has passed. The batch must fail with
// context.DeadlineExceeded before lin2 reaches any device, end the batch's
// flight (the grant's Release waits for every open flight), and leave no
// goroutine behind.
func TestDeadlineChecksEveryLayerOfBatchFlight(t *testing.T) {
	baseline := runtime.NumGoroutine()
	const gang = 3 // K=2, M=1, E=0
	deadline := time.Now().Add(200 * time.Millisecond)
	log := &layerLog{jobs: map[int]int{}}
	devs := honestDevices(gang)
	for i := range devs {
		d := lateDevice{Device: devs[i], log: log}
		if i == 0 {
			d.late, d.until = 1, deadline
		}
		devs[i] = d
	}
	fm := fleet.NewManager(gpu.NewCluster(devs...), fleet.Config{})
	inf, err := NewInferencer(Config{VirtualBatch: 2, Seed: 1},
		nn.DeepMLP(1, 8, 8, 4, 12, rand.New(rand.NewSource(42))), nil, "dl/")
	if err != nil {
		t.Fatal(err)
	}
	grant, err := fm.Acquire(context.Background(), "t", gang)
	if err != nil {
		t.Fatal(err)
	}
	images := [][]float64{trainData(2)[0].Image, trainData(2)[1].Image}
	tk, err := inf.SubmitWithin(grant, images, nil, deadline)
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-tk.Done():
	case <-time.After(guard):
		t.Fatal("the expired batch never returned")
	}
	if err := tk.Wait(); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("batch error = %v, want context.DeadlineExceeded", err)
	}
	if n := log.count(1); n != gang {
		t.Fatalf("lin1 reached %d devices, want all %d (shipped before the deadline)", n, gang)
	}
	if n := log.count(2); n != 0 {
		t.Fatalf("lin2 reached %d devices after the deadline passed", n)
	}
	if ps := inf.PhaseStats(); ps.Flights != 1 || ps.Offloads != 1 {
		t.Fatalf("%d flights / %d offloads, want 1/1 (the batch flight, stopped after lin1)", ps.Flights, ps.Offloads)
	}

	released := make(chan struct{})
	go func() {
		grant.Release()
		close(released)
	}()
	select {
	case <-released:
	case <-time.After(guard):
		t.Fatal("grant release is waiting on a flight the expired batch left open")
	}
	if st := fm.Stats(); st.AsyncDispatches != 1 {
		t.Fatalf("%d flights folded into the released grant, want 1", st.AsyncDispatches)
	}
	inf.Close()
	stop := time.Now().Add(guard)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(stop) {
			t.Fatalf("goroutines leaked: %d now vs %d before", runtime.NumGoroutine(), baseline)
		}
		time.Sleep(time.Millisecond)
	}
}

// closedGang is a granted gang whose flights never open.
type closedGang struct {
	*fleet.Grant
	err error
}

func (g closedGang) BeginBlock(int) (*gpu.BlockFlight, error) { return nil, g.err }

// closedSource hands out closedGangs over fleet grants and records the
// error each batch released its gang with.
type closedSource struct {
	managerSource
	err error

	mu   sync.Mutex
	errs []error
}

func (s *closedSource) Acquire() (Fleet, error) {
	f, err := s.managerSource.Acquire()
	if err != nil {
		return nil, err
	}
	return closedGang{Grant: f.(*fleet.Grant), err: s.err}, nil
}

func (s *closedSource) Release(f Fleet, culprits []int, err error) {
	s.mu.Lock()
	s.errs = append(s.errs, err)
	s.mu.Unlock()
	s.managerSource.Release(f.(closedGang).Grant, culprits, err)
}

// TestBatchFlightOpenFailure: when a batch's flight cannot open, the batch
// fails with that error — on the forward Pipeline and on the TrainPipeline
// — and nothing stays held: the lane serves the next batch, the gang goes
// back to the fleet (the grant's Release returns: no flight was left
// open), and no goroutine is left behind.
func TestBatchFlightOpenFailure(t *testing.T) {
	baseline := runtime.NumGoroutine()
	unreachable := errors.New("gang unreachable")
	cfg := Config{VirtualBatch: 2, Seed: 1}
	const gang = 3
	fm := fleet.NewManager(gpu.NewHonestCluster(gang), fleet.Config{})
	images := [][]float64{trainData(2)[0].Image, trainData(2)[1].Image}
	// within fails the test instead of hanging it when f never returns.
	within := func(what string, f func()) {
		t.Helper()
		done := make(chan struct{})
		go func() {
			f()
			close(done)
		}()
		select {
		case <-done:
		case <-time.After(guard):
			t.Fatalf("%s never returned", what)
		}
	}

	pipe, err := NewPipeline(cfg, nn.TinyCNN(1, 8, 8, 4, rand.New(rand.NewSource(42))), nil, "open/", 1)
	if err != nil {
		t.Fatal(err)
	}
	grant, err := fm.Acquire(context.Background(), "t", gang)
	if err != nil {
		t.Fatal(err)
	}
	tk, err := pipe.Submit(closedGang{Grant: grant, err: unreachable}, images)
	if err != nil {
		t.Fatal(err)
	}
	if err := tk.Wait(); !errors.Is(err, unreachable) {
		t.Fatalf("batch error = %v, want the flight's", err)
	}
	within("the grant's Release", grant.Release)
	within("the next forward batch", func() {
		if _, err := pipe.Predict(gpu.NewHonestCluster(gang), images); err != nil {
			t.Errorf("the lane's next batch: %v", err)
		}
	})
	pipe.Close()

	train, err := NewTrainPipeline(cfg, nn.TinyCNN(1, 8, 8, 4, rand.New(rand.NewSource(42))), nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	src := &closedSource{managerSource: managerSource{m: fm, gang: gang}, err: unreachable}
	within("the failed training step", func() {
		if _, _, err := train.TrainLargeBatch(src, trainData(4), nn.NewSGD(0.05, 0), 0); !errors.Is(err, unreachable) {
			t.Errorf("step error = %v, want the flight's", err)
		}
	})
	if len(src.errs) != 2 {
		t.Fatalf("%d gangs released, want 2 (one per virtual batch)", len(src.errs))
	}
	for _, err := range src.errs {
		if !errors.Is(err, unreachable) {
			t.Fatalf("gang released with %v, want the flight's error", err)
		}
	}
	within("the next training step", func() {
		if _, _, err := train.TrainLargeBatch(&managerSource{m: fm, gang: gang}, trainData(4), nn.NewSGD(0.05, 0), 0); err != nil {
			t.Errorf("the lane's next step: %v", err)
		}
	})
	train.Close()
	for _, d := range fm.Stats().Devices {
		if d.Leased {
			t.Fatalf("device %d still leased", d.ID)
		}
	}
	stop := time.Now().Add(guard)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(stop) {
			t.Fatalf("goroutines leaked: %d now vs %d before", runtime.NumGoroutine(), baseline)
		}
		time.Sleep(time.Millisecond)
	}
}
