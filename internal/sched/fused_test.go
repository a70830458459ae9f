package sched

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"darknight/internal/field"
	"darknight/internal/fleet"
	"darknight/internal/gpu"
	"darknight/internal/nn"
)

// TestFusedFlightCount is the flight-count gate: DeepMLP has 7 bilinear
// layers in two fusable 3-layer runs plus a lone head, so a forward must
// cost exactly 3 gang flights where the per-layer arm (perLayer) costs 7 —
// with the per-layer offload count (and the predictions) unchanged.
func TestFusedFlightCount(t *testing.T) {
	images := make([][]float64, 2)
	rng := rand.New(rand.NewSource(9))
	for i := range images {
		img := make([]float64, 64)
		for j := range img {
			img[j] = rng.Float64()
		}
		images[i] = img
	}
	run := func(fuse bool) ([]int, PhaseStats) {
		cfg := Config{VirtualBatch: 2, Collusion: 1, Seed: 1}
		model := nn.DeepMLP(1, 8, 8, 4, 12, rand.New(rand.NewSource(42)))
		inf, err := NewInferencer(cfg, model, nil, "")
		if err != nil {
			t.Fatal(err)
		}
		defer inf.Close()
		if !fuse {
			inf.perLayer()
		}
		preds, err := inf.Predict(gpu.NewHonestCluster(3), images)
		if err != nil {
			t.Fatal(err)
		}
		return preds, inf.PhaseStats()
	}
	perPreds, per := run(false)
	fusedPreds, fused := run(true)
	for i := range perPreds {
		if perPreds[i] != fusedPreds[i] {
			t.Fatalf("image %d: fused class %d != per-layer %d", i, fusedPreds[i], perPreds[i])
		}
	}
	if per.Flights != 7 || per.Offloads != 7 {
		t.Fatalf("per-layer forward: %d flights / %d offloads, want 7/7", per.Flights, per.Offloads)
	}
	if fused.Flights != 3 {
		t.Fatalf("fused forward took %d flights, want 3 (two blocks + the head)", fused.Flights)
	}
	if fused.Offloads != 7 {
		t.Fatalf("fused forward measured %d offloads, want 7 (per-layer math unchanged)", fused.Offloads)
	}
	if fused.FusedBlocks != 2 || fused.FusedLayers != 6 {
		t.Fatalf("fused accounting: %d blocks / %d layers, want 2/6", fused.FusedBlocks, fused.FusedLayers)
	}
}

// TestFusedBlockMatchesPerLayer is the fused-offload equivalence gate:
// across K/E/slack operating points — raw shared cluster, fleet-managed
// gang grants, the straggler-tolerant quorum and dual-window gathers with a
// deterministically slow device, and speculation to a spare — training
// DeepMLP fused must report the same losses and leave weights bit-identical
// to the per-layer arm (perLayer), while spending strictly fewer gang
// flights on the same number of per-layer offloads.
func TestFusedBlockMatchesPerLayer(t *testing.T) {
	combos := []struct {
		name           string
		k, m, e, slack int
		slow           []int // cluster indices of slow devices
		slowBy         time.Duration
		spares         int           // devices beyond the gang
		speculate      time.Duration // fleet.Config.SpeculateAfter
		fleetManaged   bool
	}{
		{name: "K2-M1-E0-cluster", k: 2, m: 1, e: 0},
		{name: "K3-M1-E1-fleet", k: 3, m: 1, e: 1, fleetManaged: true},
		{name: "K2-M1-E2-slack1-slow", k: 2, m: 1, e: 2, slack: 1, slow: []int{2}, slowBy: time.Millisecond, fleetManaged: true},
		// The slow device is exclusive to the primary backward window, so
		// the fused backward block decodes from the secondary one.
		{name: "K2-M1-E2-slack1-slow-first", k: 2, m: 1, e: 2, slack: 1, slow: []int{0}, slowBy: time.Millisecond, fleetManaged: true},
		// Two slow devices: no forward quorum of 4 forms from the gang
		// alone, so the first fused flights need speculation to a spare.
		{name: "K2-M1-E2-slack1-speculate", k: 2, m: 1, e: 2, slack: 1, slow: []int{1, 3}, slowBy: 8 * time.Millisecond,
			spares: 2, speculate: 500 * time.Microsecond, fleetManaged: true},
	}
	for _, c := range combos {
		t.Run(c.name, func(t *testing.T) {
			gang := c.k + c.m + c.e
			const steps, vbatches = 2, 4
			batch := trainData(vbatches * c.k)
			run := func(fuse bool) (*nn.Model, []float64, PhaseStats, *fleet.Manager) {
				cfg := Config{VirtualBatch: c.k, Collusion: c.m, Redundancy: c.e,
					StragglerSlack: c.slack, Seed: 1}
				devs := honestDevices(gang + c.spares)
				for _, i := range c.slow {
					devs[i] = gpu.NewSlow(devs[i], c.slowBy)
				}
				cluster := gpu.NewCluster(devs...)
				model := nn.DeepMLP(1, 8, 8, 4, 12, rand.New(rand.NewSource(42)))
				pipe, err := NewTrainPipeline(cfg, model, nil, "fm/", 2)
				if err != nil {
					t.Fatal(err)
				}
				defer pipe.Close()
				if !fuse {
					pipe.perLayer()
				}
				var src GangSource
				var fm *fleet.Manager
				if c.fleetManaged {
					fm = fleet.NewManager(cluster, fleet.Config{SpeculateAfter: c.speculate})
					src = &managerSource{m: fm, gang: gang}
				} else {
					src = SingleFleetSource{F: cluster}
				}
				opt := nn.NewSGD(0.05, 0.9)
				var losses []float64
				for step := 0; step < steps; step++ {
					loss, _, err := pipe.TrainLargeBatch(src, batch, opt, 0)
					if err != nil {
						t.Fatal(err)
					}
					losses = append(losses, loss)
				}
				return model, losses, pipe.PhaseStats(), fm
			}
			perModel, perLosses, perPS, _ := run(false)
			fusedModel, fusedLosses, fusedPS, fm := run(true)
			for i := range perLosses {
				if fusedLosses[i] != perLosses[i] {
					t.Fatalf("step %d: fused loss %v != per-layer %v", i, fusedLosses[i], perLosses[i])
				}
			}
			sameWeights(t, c.name, perModel, fusedModel)
			// DeepMLP has two fusable runs: two block flights on the forward
			// walk and — whatever the slack — two on the backward walk.
			if want := int64(4 * steps * vbatches); fusedPS.FusedBlocks != want {
				t.Fatalf("fused run dispatched %d block flights, want %d (forward and backward)", fusedPS.FusedBlocks, want)
			}
			if fusedPS.Offloads != perPS.Offloads {
				t.Fatalf("fused offloads %d != per-layer %d (the per-layer math must be unchanged)",
					fusedPS.Offloads, perPS.Offloads)
			}
			if fusedPS.Flights >= perPS.Flights {
				t.Fatalf("fused flights %d not fewer than per-layer %d", fusedPS.Flights, perPS.Flights)
			}
			if c.slack > 0 && len(c.slow) > 0 {
				// A slow slot misses the first quorum of every block flight
				// (the trip pays its latency on the first job), so the fused
				// quorum gathers must have left straggler marks — proof the
				// straggler-tolerant path ran fused, not wait-for-all.
				if st := fm.Stats(); st.StragglerEvents == 0 {
					t.Fatalf("slack combo never exercised the fused quorum path: %+v", st)
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

// TestFusedBackwardCacheMissRefill quarantines a device between a fused
// step's forward and backward passes: every backward gather on the
// replacement gang — the lone head AND the layers inside the open block
// flights — misses its stored coded inputs, the engine refills the
// stores from the trace (the PR5 cache-miss machinery) and re-ships the
// equations down the still-open flight. The step must complete with
// weights bit-identical to an undisturbed per-layer run.
func TestFusedBackwardCacheMissRefill(t *testing.T) {
	cfg := Config{VirtualBatch: 2, Collusion: 1, Redundancy: 0, Seed: 3}
	const gang = 3
	batch := trainData(cfg.VirtualBatch)

	// Control: undisturbed per-layer depth-1 run — doubles as one more
	// fused-vs-per-layer equivalence point.
	control := nn.DeepMLP(1, 8, 8, 4, 12, rand.New(rand.NewSource(42)))
	ctrlTrainer, err := NewTrainer(cfg, control, gpu.NewHonestCluster(gang), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer ctrlTrainer.Close()
	ctrlTrainer.perLayer()
	ctrlLoss, _, err := ctrlTrainer.TrainLargeBatch(batch, nn.NewSGD(0.05, 0.9), 0)
	if err != nil {
		t.Fatal(err)
	}

	// Disturbed fused run: a 5-device fleet, gang of 3. DeepMLP's fused
	// forward is 3 flights (two blocks + the head); after them the first
	// grant is released with slot 1 reported faulty, and the whole backward
	// walks a fresh gang.
	model := nn.DeepMLP(1, 8, 8, 4, 12, rand.New(rand.NewSource(42)))
	fm := fleet.NewManager(gpu.NewHonestCluster(gang+2), fleet.Config{ProbationProbability: -1})
	g1, err := fm.Acquire(context.Background(), "train", gang)
	if err != nil {
		t.Fatal(err)
	}
	sw := &swapFleet{fw: g1, nForward: 3}
	sw.swap = func() {
		g1.ReportFaults([]int{1})
		g1.Release()
		g2, err := fm.Acquire(context.Background(), "train", gang)
		if err != nil {
			t.Fatal(err)
		}
		sw.bw = g2
	}

	pipe, err := NewTrainPipeline(cfg, model, nil, "fmiss/", 2)
	if err != nil {
		t.Fatal(err)
	}
	defer pipe.Close()
	loss, _, err := pipe.TrainLargeBatch(SingleFleetSource{F: sw}, batch, nn.NewSGD(0.05, 0.9), 0)
	if err != nil {
		t.Fatal(err)
	}
	if sw.bw != nil {
		if g, ok := sw.bw.(*fleet.Grant); ok {
			g.Release()
		}
	}
	if loss != ctrlLoss {
		t.Fatalf("disturbed fused loss %v != per-layer control %v", loss, ctrlLoss)
	}
	sameWeights(t, "fused-cache-miss-refill", control, model)
	// All 7 bilinear layers lost their stores with the gang, so all 7 must
	// have refilled — 6 of them mid-flight inside the two backward block
	// flights.
	if refills := pipe.CacheRefills(); refills != 7 {
		t.Fatalf("%d cache refills, want 7 (one per bilinear layer)", refills)
	}
	ps := pipe.PhaseStats()
	if ps.FusedBlocks != 4 {
		t.Fatalf("%d fused blocks, want 4 (two forward + two backward)", ps.FusedBlocks)
	}
	if st := fm.Stats(); st.QuarantineEvents == 0 {
		t.Fatalf("no quarantine recorded: %+v", st)
	}
}

// TestForwardReturnsAroundBlockedDevice is the regression test for the
// fused straggler stall: with E=2 and slack 1, a gang in which one device
// is blocked on a channel the test owns must still serve a forward pass —
// fused or per-layer — and hand its grant back, all while that device is
// still blocked. A flight whose End joined every slot would hang here: the
// fused forward would wait out the laggard its quorum gathers had already
// decoded around.
func TestForwardReturnsAroundBlockedDevice(t *testing.T) {
	images := [][]float64{trainData(2)[0].Image, trainData(2)[1].Image}
	const gang = 5 // K=2, M=1, E=2
	ref, err := NewInferencer(Config{VirtualBatch: 2, Redundancy: 2, Seed: 1},
		nn.DeepMLP(1, 8, 8, 4, 12, rand.New(rand.NewSource(42))), nil, "ref/")
	if err != nil {
		t.Fatal(err)
	}
	want, err := ref.Predict(gpu.NewHonestCluster(gang), images)
	if err != nil {
		t.Fatal(err)
	}
	for _, fuse := range []bool{false, true} {
		gate := make(chan struct{})
		devs := honestDevices(gang)
		devs[3] = gatedDevice{Device: devs[3], gate: gate}
		fm := fleet.NewManager(gpu.NewCluster(devs...), fleet.Config{})
		inf, err := NewInferencer(Config{VirtualBatch: 2, Redundancy: 2, StragglerSlack: 1, Seed: 1},
			nn.DeepMLP(1, 8, 8, 4, 12, rand.New(rand.NewSource(42))), nil, "blk/")
		if err != nil {
			t.Fatal(err)
		}
		if !fuse {
			inf.perLayer()
		}
		grant, err := fm.Acquire(context.Background(), "t", gang)
		if err != nil {
			t.Fatal(err)
		}
		got, err := inf.Predict(grant, images)
		grant.Release()
		if err != nil {
			t.Fatalf("fuse=%v: %v", fuse, err)
		}
		// Everything above returned with the gate still shut.
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("fuse=%v image %d: class %d around the blocked device, %d without it", fuse, i, got[i], want[i])
			}
		}
		wantFlights := int64(7)
		if fuse {
			wantFlights = 3
		}
		if ps := inf.PhaseStats(); ps.Flights != wantFlights {
			t.Fatalf("fuse=%v: %d flights, want %d", fuse, ps.Flights, wantFlights)
		}
		if st := fm.Stats(); st.StragglerEvents != 7 {
			t.Fatalf("fuse=%v: %d straggler brands, want one per layer (7)", fuse, st.StragglerEvents)
		}
		close(gate)
	}
}

// failingDevice fails every gradient job with err: a lost store when err
// wraps gpu.ErrNoStored, a broken device otherwise.
type failingDevice struct {
	gpu.Device
	err error
}

func (d failingDevice) GradWeights(string, gpu.BilinearKernel, field.Vec) (field.Vec, error) {
	return nil, d.err
}

// TestBackwardReportsDeviceErrorOverMiss pins the one slot-error fold where
// the engine sees it: when one slot's device fails outright while another
// merely misses its stored input, the step fails with the device's error —
// inside a fused backward block as well as per-layer — instead of treating
// the layer as a cache miss to refill.
func TestBackwardReportsDeviceErrorOverMiss(t *testing.T) {
	boom := errors.New("device fell off the bus")
	miss := fmt.Errorf("gpu 0: %w", gpu.ErrNoStored)
	for _, c := range []struct {
		name string
		fuse bool
		errs [3]error // by slot
	}{
		{"per-layer, miss before error", false, [3]error{miss, boom, nil}},
		{"per-layer, error before miss", false, [3]error{boom, nil, miss}},
		{"fused, miss before error", true, [3]error{miss, boom, nil}},
		{"fused, error before miss", true, [3]error{nil, boom, miss}},
	} {
		t.Run(c.name, func(t *testing.T) {
			devs := honestDevices(3)
			for i, err := range c.errs {
				if err != nil {
					devs[i] = failingDevice{Device: devs[i], err: err}
				}
			}
			// A fleet-managed gang, so the forward pass captures what a
			// refill would need: a miss alone would be recoverable.
			fm := fleet.NewManager(gpu.NewCluster(devs...), fleet.Config{})
			cfg := Config{VirtualBatch: 2, Seed: 3}
			pipe, err := NewTrainPipeline(cfg, nn.DeepMLP(1, 8, 8, 4, 12, rand.New(rand.NewSource(42))), nil, "fold/", 2)
			if err != nil {
				t.Fatal(err)
			}
			defer pipe.Close()
			if !c.fuse {
				pipe.perLayer()
			}
			_, _, err = pipe.TrainLargeBatch(&managerSource{m: fm, gang: 3}, trainData(2), nn.NewSGD(0.05, 0), 0)
			if !errors.Is(err, boom) {
				t.Fatalf("step error = %v, want the device's own error", err)
			}
			if n := pipe.CacheRefills(); n != 0 {
				t.Fatalf("%d cache refills: the miss masked the device error", n)
			}
		})
	}
}

// lateDevice logs the layer of every forward job it is sent; on a job for
// the layer named late it sleeps until after the batch deadline first.
type lateDevice struct {
	gpu.Device
	late  string // layer key suffix, e.g. "/lin1"
	until time.Time
	log   *layerLog
}

func (d lateDevice) LinearForward(key string, kernel gpu.LinearKernel, x field.Vec) field.Vec {
	layer, _, _ := strings.Cut(key, "#s")
	d.log.add(layer)
	if d.late != "" && strings.HasSuffix(layer, d.late) {
		time.Sleep(time.Until(d.until) + time.Millisecond)
	}
	return d.Device.LinearForward(key, kernel, x)
}

// layerLog collects the forward layer keys the devices were sent.
type layerLog struct {
	mu   sync.Mutex
	keys []string
}

func (l *layerLog) add(key string) {
	l.mu.Lock()
	l.keys = append(l.keys, key)
	l.mu.Unlock()
}

func (l *layerLog) count(suffix string) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := 0
	for _, k := range l.keys {
		if strings.HasSuffix(k, suffix) {
			n++
		}
	}
	return n
}

// TestDeadlineChecksEveryLayerOfFusedBlock pins the deadline contract inside
// a fused block: the gate runs before every layer ships, not once per
// flight. DeepMLP's first block is lin1–lin3; one device answers lin1 only
// after the batch's deadline has passed. The batch must fail with
// context.DeadlineExceeded before lin2 reaches any device, end the block's
// flight (the grant's Release waits for every open flight), and leave no
// goroutine behind.
func TestDeadlineChecksEveryLayerOfFusedBlock(t *testing.T) {
	baseline := runtime.NumGoroutine()
	const gang = 3 // K=2, M=1, E=0
	deadline := time.Now().Add(200 * time.Millisecond)
	log := &layerLog{}
	devs := honestDevices(gang)
	for i := range devs {
		d := lateDevice{Device: devs[i], log: log}
		if i == 0 {
			d.late, d.until = "/lin1", deadline
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
	if n := log.count("/lin1"); n != gang {
		t.Fatalf("lin1 reached %d devices, want all %d (shipped before the deadline)", n, gang)
	}
	if n := log.count("/lin2"); n != 0 {
		t.Fatalf("lin2 reached %d devices after the deadline passed", n)
	}
	if ps := inf.PhaseStats(); ps.Flights != 1 || ps.Offloads != 1 {
		t.Fatalf("%d flights / %d offloads, want 1/1 (the first block, stopped after lin1)", ps.Flights, ps.Offloads)
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
