package sched

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"darknight/internal/field"
	"darknight/internal/gpu"
	"darknight/internal/nn"
	"darknight/internal/spec/stack"
	"darknight/internal/tensor"
)

// TestStagedWeightsFollowEveryWrite: a lane stages each layer's quantized
// weights once and reuses them while the float weights stay as staged, so
// every way of writing the weights between batches must restage them —
// an optimizer step (here a training pipeline's on the same model, as a
// System trains and serves one replica), a copy from another replica (what
// darknight.Model.CopyWeightsFrom does) and a direct write into
// WeightData. After each, the inference lane's logits must be
// internal/spec/stack's on the new weights, and differ from the last ones.
func TestStagedWeightsFollowEveryWrite(t *testing.T) {
	cfg := Config{VirtualBatch: 2, Collusion: 1, Redundancy: 1, Seed: 3}
	model := pipeModel()
	images := pipeBatches(cfg.VirtualBatch, 1, 64)[0]
	cluster := gpu.NewHonestCluster(4)
	inf, err := NewInferencer(cfg, model, nil, "staged/infer/")
	if err != nil {
		t.Fatal(err)
	}
	defer inf.Close()
	train, err := NewTrainPipeline(cfg, model, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer train.Close()
	replica := nn.TinyCNN(1, 8, 8, 4, rand.New(rand.NewSource(77)))

	var last []*tensor.Tensor
	for _, write := range []struct {
		name string
		do   func()
	}{
		{"none", func() {}},
		{"SGD step", func() {
			if _, _, err := train.TrainLargeBatch(SingleFleetSource{F: cluster}, trainData(2*cfg.VirtualBatch), nn.NewSGD(0.05, 0.9), 0); err != nil {
				t.Fatal(err)
			}
		}},
		{"replica copy", func() {
			from := replica.Params()
			for i, p := range model.Params() {
				copy(p.W.Data, from[i].W.Data)
			}
		}},
		{"direct write", func() {
			for _, lin := range model.LinearLayers() {
				w := lin.WeightData()
				w[len(w)-1] += 0.5
			}
		}},
	} {
		write.do()
		want := stack.New(model, cfg.VirtualBatch).Forward(images)
		if last != nil && !moved(last, want) {
			t.Fatalf("after %s: the spec's logits did not move, so the write proves nothing", write.name)
		}
		got, err := inf.Forward(cluster, images)
		if err != nil {
			t.Fatal(err)
		}
		sameLogits(t, "after "+write.name, 0, want, got)
		last = want
	}
}

// moved reports whether any logit differs between a and b.
func moved(a, b []*tensor.Tensor) bool {
	for i := range a {
		for j, v := range a[i].Data {
			if v != b[i].Data[j] {
				return true
			}
		}
	}
	return false
}

// recheckDevice is a spare that checks the operands of its forward jobs
// outlive their gather: it evaluates each kernel when the job arrives,
// waits for the gate, and evaluates it again. A runtime that overwrote
// what the kernel reads in between makes the two results differ. A spare
// runs its job on a goroutine of its own, so the gate blocks only it.
type recheckDevice struct {
	gpu.Device
	gate    <-chan struct{}
	changed *atomic.Int32
	done    chan<- struct{}
}

func (d recheckDevice) LinearForward(kernel gpu.LinearKernel, x field.Vec) field.Vec {
	before := kernel(x)
	<-d.gate
	out := d.Device.LinearForward(kernel, x)
	if !out.Equal(before) {
		d.changed.Add(1)
	}
	field.PutScratchVec(before)
	d.done <- struct{}{}
	return out
}

// spareGang is a gang of K=2, M=1, E=2 whose last two devices answer an
// hour late, and whose flights lend a spare to every forward layer as soon
// as its quorum gather parks: an honest spare for slot 3, whose answer
// completes the quorum of four, and a recheckDevice for slot 4, whose job
// still runs after its gather returned — the one reader a flight has
// then.
type spareGang struct {
	devs    []gpu.Device
	gate    <-chan struct{}
	changed *atomic.Int32
	done    chan<- struct{}
}

func newSpareGang(gate <-chan struct{}, changed *atomic.Int32, done chan<- struct{}) spareGang {
	devs := honestDevices(5)
	devs[3], devs[4] = hourLate(devs[3]), hourLate(devs[4])
	return spareGang{devs: devs, gate: gate, changed: changed, done: done}
}

func (g spareGang) Size() int { return len(g.devs) }

func (g spareGang) BeginBlock(n int) (*gpu.BlockFlight, error) {
	return gpu.NewBlockFlight(g.devs[:n], gpu.BlockOptions{
		SpeculateAfter: time.Microsecond,
		Spare: func(slot int) (gpu.Device, func(time.Duration), bool) {
			var d gpu.Device = gpu.NewHonest(10 + slot)
			if slot == 4 {
				d = recheckDevice{Device: d, gate: g.gate, changed: g.changed, done: g.done}
			}
			return d, func(time.Duration) {}, true
		},
	}), nil
}

// TestStagedWeightsOutliveLaggard: with straggler slack a quorum gather
// returns while a spare still computes a lagging share, so a lane that
// restages a layer must leave the vector the spare reads alone. At K=2,
// M=1, E=2, slack 1 every forward layer's quorum forms through a spare
// (spareGang), and a second spare holds its job until the test opens its
// gate; the weights change between two batches while it holds the first
// batch's jobs. Both batches must match internal/spec/stack on the weights
// they ran with, and every held job must compute, once released, what it
// would have computed on arrival.
func TestStagedWeightsOutliveLaggard(t *testing.T) {
	cfg := Config{VirtualBatch: 2, Collusion: 1, Redundancy: 2, StragglerSlack: 1, Seed: 5}
	model := pipeModel()
	batches := pipeBatches(cfg.VirtualBatch, 2, 64)
	layers := len(model.LinearLayers())
	gate := make(chan struct{})
	done := make(chan struct{}, 2*layers) // one per held job: the spare never blocks on it
	var changed atomic.Int32
	gang := newSpareGang(gate, &changed, done)
	inf, err := NewInferencer(cfg, model, nil, "laggard/")
	if err != nil {
		t.Fatal(err)
	}
	defer inf.Close()

	for b, images := range batches {
		if b == 1 {
			for _, lin := range model.LinearLayers() {
				w := lin.WeightData()
				w[len(w)-1] += 0.5
			}
		}
		want := stack.New(model, cfg.VirtualBatch).Forward(images)
		got, err := inf.Forward(gang, images)
		if err != nil {
			t.Fatal(err)
		}
		sameLogits(t, "laggard", b, want, got)
	}
	close(gate)
	for i := 0; i < 2*layers; i++ {
		<-done
	}
	if n := changed.Load(); n > 0 {
		t.Fatalf("%d held spare jobs computed a different result after the weights changed: their operands were overwritten", n)
	}
}

// TestTrainSpareOperandsOutliveBatch: a training batch's spare job still
// reads its coded input and its layer's staged weights after its gather,
// so neither the lane's later virtual batches, which reuse its arenas, nor
// the next step's restaging, after the optimizer wrote the weights, may
// touch them. On spareGang at slack 1 every forward layer's quorum forms
// through a spare, and a second spare holds its job until the test opens
// its gate, after two steps of two virtual batches each have run on the
// one lane. Every held job must compute, once released, what it computed
// on arrival, and the weights must be internal/spec/stack's.
func TestTrainSpareOperandsOutliveBatch(t *testing.T) {
	cfg := Config{VirtualBatch: 2, Collusion: 1, Redundancy: 2, StragglerSlack: 1, Seed: 5}
	const vbs, steps = 2, 2
	batch := trainData(vbs * cfg.VirtualBatch)
	specModel := pipeModel()
	specTrain(specModel, cfg.VirtualBatch, batch, steps)

	model := pipeModel()
	layers := len(model.LinearLayers())
	gate := make(chan struct{})
	release := sync.OnceFunc(func() { close(gate) })
	defer release()
	done := make(chan struct{}, steps*vbs*layers) // one per held job: the spare never blocks on it
	var changed atomic.Int32
	pipe, err := NewTrainPipeline(cfg, model, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer pipe.Close()

	src := SingleFleetSource{F: newSpareGang(gate, &changed, done)}
	opt := nn.NewSGD(0.05, 0.9)
	for range steps {
		if _, _, err := pipe.TrainLargeBatch(src, batch, opt, 0); err != nil {
			t.Fatal(err)
		}
	}
	release()
	for i := 0; i < steps*vbs*layers; i++ {
		<-done
	}
	if n := changed.Load(); n > 0 {
		t.Fatalf("%d held spare jobs computed a different result after their batch: their operands were overwritten", n)
	}
	sameBits(t, "held spare", specModel, model)
}
