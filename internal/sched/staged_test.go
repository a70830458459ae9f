package sched

import (
	"math/rand"
	"testing"

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
