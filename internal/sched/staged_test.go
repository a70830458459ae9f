package sched

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

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
	train, err := NewTrainPipeline(cfg, model, nil, "staged/train/", 1)
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

// recheckDevice is a quorum laggard that checks the operands of its forward
// jobs outlive their batch: it evaluates each kernel when the job arrives,
// waits for the gate, and evaluates it again. A runtime that overwrote
// what the kernel reads in between makes the two results differ.
type recheckDevice struct {
	gpu.Device
	gate    <-chan struct{}
	changed *atomic.Int32
	done    chan<- struct{}
}

func (d recheckDevice) LinearForward(key string, kernel gpu.LinearKernel, x field.Vec) field.Vec {
	before := kernel(x)
	<-d.gate
	out := d.Device.LinearForward(key, kernel, x)
	if !out.Equal(before) {
		d.changed.Add(1)
	}
	field.PutScratchVec(before)
	d.done <- struct{}{}
	return out
}

// TestStagedWeightsOutliveLaggard: with straggler slack a quorum gather
// returns while a laggard still computes, so a lane that restages a layer
// must leave the vector the laggard reads alone. At K=2, M=1, E=2, slack 1
// the gang's last device holds every forward job until the test opens its
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
	done := make(chan struct{}, 2*layers) // one per held job: the device never blocks on it
	var changed atomic.Int32
	devs := honestDevices(5)
	devs[4] = recheckDevice{Device: devs[4], gate: gate, changed: &changed, done: done}
	cluster := gpu.NewCluster(devs...)
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
		got, err := inf.Forward(cluster, images)
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
		t.Fatalf("%d held forward jobs computed a different result after the weights changed: the laggard's operands were overwritten", n)
	}
}

// heldGradDevice is a backward quorum laggard that checks the operands of
// its gradient jobs outlive their batch: it evaluates each job when it
// arrives, runs arrived, waits for the gate and evaluates the job again. A
// runtime that rewrote the equation in between makes the two results
// differ.
type heldGradDevice struct {
	gpu.Device
	gate    <-chan struct{}
	arrived func()
	changed *atomic.Int32
	done    chan<- struct{}
}

func (d heldGradDevice) GradWeights(key string, kernel gpu.BilinearKernel, delta field.Vec) (field.Vec, error) {
	before, berr := d.Device.GradWeights(key, kernel, delta)
	d.arrived()
	<-d.gate
	out, err := d.Device.GradWeights(key, kernel, delta)
	if berr != nil || err != nil || !out.Equal(before) {
		d.changed.Add(1)
	}
	field.PutScratchVec(before)
	d.done <- struct{}{}
	return out, err
}

// waitGradDevice runs no gradient job before wait is closed.
type waitGradDevice struct {
	gpu.Device
	wait <-chan struct{}
}

func (d waitGradDevice) GradWeights(key string, kernel gpu.BilinearKernel, delta field.Vec) (field.Vec, error) {
	<-d.wait
	return d.Device.GradWeights(key, kernel, delta)
}

// TestBackwardEquationsOutliveLaggard: with straggler slack a backward
// quorum gather returns from one decode window while a device of the other
// still computes, so the equations that device reads must outlive the
// gather — the lane's next virtual batch reuses its arena and must not
// reuse them. At K=2, M=1, E=2, slack 1 the gang's last device, which
// serves only the secondary window, evaluates each gradient job as it
// arrives and holds it until the test opens its gate, after both virtual
// batches of a step have run on the one lane. Device 0 runs no gradient
// job before the last device's first one has arrived, so the first layer's
// gather returns from the primary window only after that arrival. Every
// held job must compute, once released, what it computed on arrival, and
// the weights must be internal/spec/stack's.
func TestBackwardEquationsOutliveLaggard(t *testing.T) {
	cfg := Config{VirtualBatch: 2, Collusion: 1, Redundancy: 2, StragglerSlack: 1, Seed: 5}
	const vbs = 2
	batch := trainData(vbs * cfg.VirtualBatch)
	specModel := pipeModel()
	specTrain(specModel, cfg.VirtualBatch, batch, 1)

	model := pipeModel()
	layers := len(model.LinearLayers())
	gate, arrived := make(chan struct{}), make(chan struct{})
	release := sync.OnceFunc(func() { close(gate) })
	defer release()
	done := make(chan struct{}, vbs*layers) // one per held job: the device never blocks on it
	var changed atomic.Int32
	devs := honestDevices(5)
	devs[0] = waitGradDevice{Device: devs[0], wait: arrived}
	devs[4] = heldGradDevice{Device: devs[4], gate: gate, arrived: sync.OnceFunc(func() { close(arrived) }),
		changed: &changed, done: done}
	pipe, err := NewTrainPipeline(cfg, model, nil, "held/", 1)
	if err != nil {
		t.Fatal(err)
	}
	defer pipe.Close()

	if _, _, err := pipe.TrainLargeBatch(SingleFleetSource{F: gpu.NewCluster(devs...)}, batch, nn.NewSGD(0.05, 0.9), 0); err != nil {
		t.Fatal(err)
	}
	release()
	for i := 0; i < vbs*layers; i++ {
		<-done
	}
	if n := changed.Load(); n > 0 {
		t.Fatalf("%d held gradient jobs computed a different result after their batch: the laggard's equations were overwritten", n)
	}
	sameBits(t, "held laggard", specModel, model)
}
