package sched

import (
	"context"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"darknight/internal/fleet"
	"darknight/internal/gpu"
	"darknight/internal/nn"
	"darknight/internal/spec/stack"
	"darknight/internal/tensor"
)

// vggBatch is the infer_compute geometry: a width-1 VGG over 1×8×8 images
// at K=4, M=1, E=1, with one virtual batch of images.
func vggBatch() (*nn.Model, Config, [][]float64) {
	model := nn.VGG16Scaled(1, 8, 8, 4, 1, rand.New(rand.NewSource(11)))
	return model, Config{VirtualBatch: 4, Collusion: 1, Redundancy: 1, Seed: 3}, pipeBatches(4, 1, 64)[0]
}

// allocsPerBatch runs batch until it is warm, then returns its mean
// allocations and allocated bytes per call, each the least of several
// readings. runtime.MemStats counts every goroutine's allocations — a
// noise pool's background generator and other tests' goroutines included —
// so one reading may carry someone else's; an allocation the batch makes
// shows in every reading.
func allocsPerBatch(t *testing.T, batch func()) (allocs, bytes float64) {
	t.Helper()
	for i := 0; i < 5; i++ {
		batch()
	}
	const runs, readings = 40, 3
	allocs, bytes = math.Inf(1), math.Inf(1)
	for r := 0; r < readings; r++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		a := testing.AllocsPerRun(runs, batch)
		runtime.ReadMemStats(&after)
		// AllocsPerRun makes one warm-up call besides the measured runs.
		allocs = min(allocs, a)
		bytes = min(bytes, float64(after.TotalAlloc-before.TotalAlloc)/(runs+1))
	}
	return allocs, bytes
}

// TestCodedInferenceBatchAllocs pins the steady-state allocation of one
// coded inference batch at the infer_compute operating point: activations
// live in the lane's batch memory, device results go back to the kernels'
// pool once decoded, an inference flight keeps nothing on its devices, and
// the lane's staged weights serve every batch. What remains is per-layer
// bookkeeping (the pending gather) and the per-batch code, flight, slot
// queues, goroutine and ticket.
func TestCodedInferenceBatchAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector bypasses sync.Pool, so allocation counts are meaningless under -race")
	}
	model, cfg, images := vggBatch()
	inf, err := NewInferencer(cfg, model, nil, "alloc/")
	if err != nil {
		t.Fatal(err)
	}
	defer inf.Close()
	cluster := gpu.NewHonestCluster(6)
	allocs, bytes := allocsPerBatch(t, func() {
		if _, err := inf.Forward(cluster, images); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("coded inference batch: %.0f allocs, %.0f bytes", allocs, bytes)
	if allocs > maxInferAllocs || bytes > maxInferBytes {
		t.Fatalf("coded inference batch: %.0f allocs and %.0f bytes, want <= %d and <= %d",
			allocs, bytes, maxInferAllocs, maxInferBytes)
	}
}

// TestTrainVirtualBatchAllocs pins the allocation of one training virtual
// batch, forward and backward, on the same geometry: the forward's
// activations, the backward's δ tensors, quantized deltas and one-window
// equations, the device results of both passes and the sealed ▽W pages are
// recycled, and so are the coded inputs the flight keeps for the backward
// pass; the per-layer traces and gather state, the per-batch code and each
// flight's slot queues are not.
func TestTrainVirtualBatchAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector bypasses sync.Pool, so allocation counts are meaningless under -race")
	}
	model, cfg, _ := vggBatch()
	pipe, err := NewTrainPipeline(cfg, model, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer pipe.Close()
	src := SingleFleetSource{F: gpu.NewHonestCluster(6)}
	batch := trainData(cfg.VirtualBatch)
	opt := nn.NewSGD(0.05, 0.9)
	allocs, bytes := allocsPerBatch(t, func() {
		if _, _, err := pipe.TrainLargeBatch(src, batch, opt, 0); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("training virtual batch: %.0f allocs, %.0f bytes", allocs, bytes)
	if allocs > maxTrainAllocs || bytes > maxTrainBytes {
		t.Fatalf("training virtual batch: %.0f allocs and %.0f bytes, want <= %d and <= %d",
			allocs, bytes, maxTrainAllocs, maxTrainBytes)
	}
}

// TestTrainFlightBatchAllocs pins the allocation of one training virtual
// batch at the train_flight operating point, where the flight does the
// most bookkeeping: a deep MLP at K=2, M=1, E=2 with straggler slack 1 on
// depth-2 lanes over five devices with a 1 ms launch latency, so every
// forward layer is gathered by quorum around a laggard and every backward
// layer ships both decode windows. The flights own the operands, recycle
// the answers no gather took at End and are reused with their pending
// tables, snapshots and slot queues, and the lane restages its weights in
// place, so what remains is the per-batch code, traces and lane
// bookkeeping.
func TestTrainFlightBatchAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector bypasses sync.Pool, so allocation counts are meaningless under -race")
	}
	const vbatches = 8
	cfg := Config{VirtualBatch: 2, Collusion: 1, Redundancy: 2, StragglerSlack: 1, Seed: 3}
	pipe, err := NewTrainPipeline(cfg, nn.DeepMLP(1, 8, 8, 4, 16, rand.New(rand.NewSource(42))), nil, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer pipe.Close()
	devs := honestDevices(5)
	for i := range devs {
		devs[i] = gpu.NewSlow(devs[i], time.Millisecond)
	}
	src := SingleFleetSource{F: gpu.NewCluster(devs...)}
	batch := trainData(vbatches * cfg.VirtualBatch)
	opt := nn.NewSGD(0.05, 0.9)
	allocs, bytes := allocsPerBatch(t, func() {
		if _, _, err := pipe.TrainLargeBatch(src, batch, opt, 0); err != nil {
			t.Fatal(err)
		}
	})
	allocs, bytes = allocs/vbatches, bytes/vbatches
	t.Logf("train_flight virtual batch: %.0f allocs, %.0f bytes", allocs, bytes)
	if allocs > maxFlightAllocs || bytes > maxFlightBytes {
		t.Fatalf("train_flight virtual batch: %.0f allocs and %.0f bytes, want <= %d and <= %d",
			allocs, bytes, maxFlightAllocs, maxFlightBytes)
	}
}

// TestTicketLogitsOutliveLaneBatch: a ticket's logits and classes are the
// caller's. The lane that computed them recycles its batch memory on its
// next batch, so the ticket must hold copies: batch n's results, read after
// batch n+1 ran on the same lane, are still internal/spec/stack's.
func TestTicketLogitsOutliveLaneBatch(t *testing.T) {
	model, cfg, _ := vggBatch()
	batches := pipeBatches(cfg.VirtualBatch, 2, 64)
	ref := stack.New(model, cfg.VirtualBatch)
	want := ref.Forward(batches[0])
	inf, err := NewInferencer(cfg, model, nil, "out/")
	if err != nil {
		t.Fatal(err)
	}
	defer inf.Close()
	cluster := gpu.NewHonestCluster(6)
	first, err := inf.Submit(cluster, batches[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := first.Wait(); err != nil {
		t.Fatal(err)
	}
	classes := append([]int(nil), first.Classes()...)
	if _, err := inf.Forward(cluster, batches[1]); err != nil {
		t.Fatal(err)
	}
	sameLogits(t, "after the next batch", 0, want, first.Logits())
	for i, l := range want {
		if c := first.Classes()[i]; c != nn.Argmax(l) || c != classes[i] {
			t.Fatalf("image %d: class %d after the next batch, spec %d", i, c, nn.Argmax(l))
		}
	}
}

// TestOpenLoopRecycledResultsMatchSpec is the recycling stress test, meant
// for -race: two pipelines of depth 2 share a managed fleet holding one
// tamperer and one slow device, at K=4, M=1, E=2, slack 1, with recovery
// on, and batches are submitted without waiting for earlier ones to
// finish. Device results are recycled after every decode, audit and
// recovery, and quorum laggards' answers land after their batch moved on;
// a buffer handed out twice would corrupt some batch's logits. Every batch
// must be answered bit-identical to internal/spec/stack — a tamper the
// quorum gather left one check to see is attributed once the laggard's
// answer lands — and the tamperer must be the only device ever
// quarantined.
func TestOpenLoopRecycledResultsMatchSpec(t *testing.T) {
	const (
		workers = 2
		depth   = 2
		batches = 12 // per worker
		gang    = 7
		bad     = 2
	)
	cfg := Config{VirtualBatch: 4, Collusion: 1, Redundancy: 2, StragglerSlack: 1, Seed: 9}
	devs := honestDevices(3 * gang)
	devs[bad] = gpu.NewMalicious(devs[bad], gpu.FaultPolicy{EveryNth: 1})
	devs[gang+3] = gpu.NewSlow(devs[gang+3], 500*time.Microsecond)
	fm := fleet.NewManager(gpu.NewCluster(devs...), fleet.Config{})
	images := pipeBatches(cfg.VirtualBatch, workers*batches, 64)
	want := make([][]*tensor.Tensor, len(images))
	ref := stack.New(pipeModel(), cfg.VirtualBatch)
	for b := range images {
		want[b] = ref.Forward(images[b])
	}

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		pipe, err := NewPipeline(cfg, pipeModel(), nil, "open/"+string(rune('a'+w))+"/", depth)
		if err != nil {
			t.Fatal(err)
		}
		defer pipe.Close()
		if err := pipe.EnableRecovery(); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < batches; i++ {
			b := w*batches + i
			g, err := fm.Acquire(context.Background(), "open", gang)
			if err != nil {
				t.Fatal(err)
			}
			tk, err := pipe.Submit(g, images[b])
			if err != nil {
				t.Fatal(err)
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				err := tk.Wait()
				ReportOutcome(g, tk.Culprits(), err)
				g.Release()
				if err != nil {
					t.Errorf("batch %d: %v, want an answer", b, err)
					return
				}
				sameLogits(t, "open loop", b, want[b], tk.Logits())
			}()
		}
	}
	wg.Wait()
	st := fm.Stats()
	t.Logf("%d batches; %d straggler and %d quarantine events",
		len(images), st.StragglerEvents, st.QuarantineEvents)
	if st.StragglerEvents == 0 {
		t.Fatal("no quorum gather returned around the slow device")
	}
	for _, d := range st.Devices {
		if caught := d.Quarantines > 0; caught != (d.ID == bad) {
			t.Fatalf("device %d quarantined %d times; only the tamperer, device %d, should be", d.ID, d.Quarantines, bad)
		}
	}
}

// countingLinear counts the input gradients a bilinear layer is asked for.
type countingLinear struct {
	*nn.Dense
	calls *int
}

func (c countingLinear) BackwardInputOnly(dst, gout *tensor.Tensor) {
	*c.calls++
	c.Dense.BackwardInputOnly(dst, gout)
}

// TestBackwardSkipsLowestInputGradient: nothing reads the gradient with
// respect to a virtual batch's images, so the backward walk stops asking
// for input gradients at the lowest bilinear layer — and only there.
func TestBackwardSkipsLowestInputGradient(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	var low, high int
	model := nn.NewModel("counted", []int{1, 8, 8}, 4, nn.NewSequential("s",
		nn.NewFlatten("flat", 1, 8, 8),
		countingLinear{nn.NewDense("fc1", 64, 12, rng), &low},
		nn.NewReLU("relu", 12),
		countingLinear{nn.NewDense("fc2", 12, 4, rng), &high},
	))
	const k, vbatches = 2, 3
	pipe, err := NewTrainPipeline(Config{VirtualBatch: k, Seed: 1}, model, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer pipe.Close()
	if _, _, err := pipe.TrainLargeBatch(SingleFleetSource{F: gpu.NewHonestCluster(3)}, trainData(vbatches*k), nn.NewSGD(0.05, 0), 0); err != nil {
		t.Fatal(err)
	}
	if low != 0 || high != vbatches*k {
		t.Fatalf("input gradients: lowest layer %d, upper layer %d; want 0 and %d", low, high, vbatches*k)
	}
	for _, p := range model.Params() {
		for _, v := range p.W.Data {
			if math.IsNaN(v) {
				t.Fatalf("%s went NaN", p.Name)
			}
		}
	}
}

// The allocation bounds of TestCodedInferenceBatchAllocs,
// TestTrainVirtualBatchAllocs and TestTrainFlightBatchAllocs, per virtual
// batch: a few allocations and a few hundred bytes over the measured 60
// allocations and 3,424 bytes of an inference batch, 47 and 2,864 of a
// training one, and 53 and 2,252 of a train_flight one (go1.24,
// linux/amd64). Before the training pipeline
// reused its tickets and a flight of devices that cannot block ran its
// jobs on the gatherer, the training batches were 50 and 3,096, and 69
// and 5,264. Before a training lane wrapped
// its examples' images in batch memory directly, the training batches
// were 51 and 3,192, and 70 and 5,312. Before Flatten, AvgPool and
// BatchNorm cached their OutShape they were 61 and 3,432, 52 and 3,200,
// and 71 and 5,324. Before flights owned every
// operand and late answer and were reused with their bookkeeping, the
// lanes kept their traces in batch memory, the step's aggregate was reused
// and the noise pool's spare queue stopped reallocating, they were 105 and
// 7,368, 168 and 29,336, and 431 and 46,600. Before flights owned the
// coded inputs their devices keep, slot workers
// started without a per-start closure and layers cached their OutShape,
// they were 143 and 10,168, and 228 and 34,880; before the backward ran
// in the lane's memory and the sealed pages recycled, training measured
// 602 and 146,134; before the lane's staged
// weights, the matrix-free TEE input gradient and masking.New's scratch
// coalition check they were 210 and 11,930, and 825 and 152,907; before
// the lane's batch memory and the recycled device results, 529 and
// 110,653, and 1,294 and 321,265.
const (
	maxInferAllocs  = 63
	maxInferBytes   = 3600
	maxTrainAllocs  = 50
	maxTrainBytes   = 3032
	maxFlightAllocs = 57
	maxFlightBytes  = 2540
)
