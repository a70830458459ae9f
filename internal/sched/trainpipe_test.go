package sched

import (
	"context"
	"math/rand"
	"testing"
	"time"

	"darknight/internal/dataset"
	"darknight/internal/enclave"
	"darknight/internal/fleet"
	"darknight/internal/gpu"
	"darknight/internal/nn"
	"darknight/internal/spec/stack"
)

// trainData draws a deterministic synthetic training set.
func trainData(n int) []dataset.Example {
	d := dataset.SyntheticCIFAR(rand.New(rand.NewSource(7)), n, 4, 1, 8, 8, 0.05)
	return d.Items
}

// specTrain trains model on internal/spec/stack at virtual batch k for
// steps large batches of batch, with the optimizer the tests train with,
// and returns the losses.
func specTrain(model *nn.Model, k int, batch []dataset.Example, steps int) []float64 {
	ref := stack.New(model, k)
	opt := nn.NewSGD(0.05, 0.9)
	losses := make([]float64, steps)
	for i := range losses {
		losses[i] = ref.TrainLargeBatch(batch, opt)
	}
	return losses
}

// managerSource backs a TrainPipeline with per-batch fleet.Manager gang
// grants — the fleet-backed training dispatch path.
type managerSource struct {
	m    *fleet.Manager
	gang int
}

func (s *managerSource) Acquire() (Fleet, error) {
	return s.m.Acquire(context.Background(), "train", s.gang)
}

func (s *managerSource) Release(f Fleet, culprits []int, err error) {
	g := f.(*fleet.Grant)
	if len(culprits) > 0 {
		g.ReportFaults(culprits)
	}
	g.Release()
}

// TestTrainPipelineMatchesSerial is the training equivalence gate: across
// K/E/slack operating points and depths 1 to 3 — including
// straggler-tolerant backward via a deterministically slow device, on both
// the shared-cluster and the fleet-managed gang source, and at several
// Algorithm-2 shard sizes — TrainLargeBatch must leave the model with
// weights bit-identical to internal/spec/stack's (plain loops: no coding,
// lanes, token, noise, gradient redirection or sealing), and report the
// same losses. Decode exactness over F_p plus virtual-batch-order
// aggregation makes the coding and the overlap invisible to the result.
func TestTrainPipelineMatchesSerial(t *testing.T) {
	combos := []struct {
		name           string
		k, m, e, slack int
		slowSlot       int // -1 = no slow device
		depth          int
		fleetManaged   bool
		shardElems     int
	}{
		{name: "K2-M1-E0-cluster-depth1", k: 2, m: 1, e: 0, slowSlot: -1, depth: 1},
		{name: "K2-M1-E0-cluster", k: 2, m: 1, e: 0, slowSlot: -1, depth: 2},
		{name: "K3-M1-E1-fleet-depth1", k: 3, m: 1, e: 1, slowSlot: -1, depth: 1, fleetManaged: true, shardElems: 64},
		{name: "K3-M1-E1-fleet", k: 3, m: 1, e: 1, slowSlot: -1, depth: 2, fleetManaged: true, shardElems: 64},
		{name: "K2-M1-E2-slack1-slow-first-depth1", k: 2, m: 1, e: 2, slack: 1, slowSlot: 0, depth: 1, fleetManaged: true},
		{name: "K2-M1-E2-slack1-slow-first", k: 2, m: 1, e: 2, slack: 1, slowSlot: 0, depth: 2, fleetManaged: true},
		{name: "K2-M1-E2-slack1-slow-last", k: 2, m: 1, e: 2, slack: 1, slowSlot: 4, depth: 3, fleetManaged: true, shardElems: 100},
	}
	for _, c := range combos {
		t.Run(c.name, func(t *testing.T) {
			cfg := Config{VirtualBatch: c.k, Collusion: c.m, Redundancy: c.e, StragglerSlack: c.slack, Seed: 1}
			gang := c.k + c.m + c.e
			devs := honestDevices(gang)
			if c.slowSlot >= 0 {
				devs[c.slowSlot] = gpu.NewSlow(devs[c.slowSlot], time.Millisecond)
			}
			pipeCluster := gpu.NewCluster(devs...)
			batch := trainData(6 * c.k)

			specModel := nn.TinyCNN(1, 8, 8, 4, rand.New(rand.NewSource(42)))
			specLosses := specTrain(specModel, c.k, batch, 2)

			// The runtime at this depth, on an identically initialized model.
			pipeModel := nn.TinyCNN(1, 8, 8, 4, rand.New(rand.NewSource(42)))
			pipe, err := NewTrainPipeline(cfg, pipeModel, nil, c.depth)
			if err != nil {
				t.Fatal(err)
			}
			defer pipe.Close()
			var src GangSource
			var fm *fleet.Manager
			if c.fleetManaged {
				fm = fleet.NewManager(pipeCluster, fleet.Config{})
				src = &managerSource{m: fm, gang: gang}
			} else {
				src = SingleFleetSource{F: pipeCluster}
			}
			opt := nn.NewSGD(0.05, 0.9)
			for step := 0; step < 2; step++ {
				loss, stats, err := pipe.TrainLargeBatch(src, batch, opt, c.shardElems)
				if err != nil {
					t.Fatal(err)
				}
				if loss != specLosses[step] {
					t.Fatalf("step %d: depth-%d loss %v != spec %v", step, c.depth, loss, specLosses[step])
				}
				if stats.VirtualBatches != 6 {
					t.Fatalf("step %d: %d virtual batches, want 6", step, stats.VirtualBatches)
				}
			}
			sameBits(t, c.name, specModel, pipeModel)

			ps := pipe.PhaseStats()
			if ps.Offloads == 0 || ps.Wall == 0 {
				t.Fatalf("train pipeline recorded no work: %+v", ps)
			}
			if c.slack > 0 && c.slowSlot >= 0 {
				// The slow device is window-exclusive on every pick order, so
				// the dual-window backward quorum must have left straggler
				// marks — proof the tolerant path (not wait-for-all) ran.
				if st := fm.Stats(); st.StragglerEvents == 0 {
					t.Fatalf("slack combo never exercised the quorum paths: %+v", st)
				}
			}
		})
	}
}

// TestTrainerPhaseWallAccounting: the depth-1 Trainer must accumulate Wall
// (without it Overlap() silently reports 0 on the training path) and time
// both the forward and backward offloads.
func TestTrainerPhaseWallAccounting(t *testing.T) {
	tr, _, data := tinySetup(t, Config{VirtualBatch: 2, Seed: 5}, 3, nil)
	if _, _, err := tr.TrainLargeBatch(data.Items[:2], nn.NewSGD(0.01, 0), 0); err != nil {
		t.Fatal(err)
	}
	ps := tr.PhaseStats()
	if ps.Wall <= 0 {
		t.Fatalf("Trainer recorded no Wall time: %+v", ps)
	}
	// TinyCNN: 2 forward + 2 backward offloads per virtual batch.
	if ps.Offloads != 4 {
		t.Fatalf("offloads = %d, want 4 (forward + backward)", ps.Offloads)
	}
	if ps.Dispatch <= 0 || ps.Encode <= 0 {
		t.Fatalf("phase breakdown not accumulated: %+v", ps)
	}
	if ov := ps.Overlap(); ov <= 0 {
		t.Fatalf("Overlap() = %v on a trainer that did work", ov)
	}
}

// TestTrainLargeBatchDropsTail: tail examples beyond the last full virtual
// batch are dropped and visibly reported, at depth 1 and depth 2.
func TestTrainLargeBatchDropsTail(t *testing.T) {
	cfg := Config{VirtualBatch: 2, Seed: 2}
	batch := trainData(7)

	tr, _, _ := tinySetup(t, cfg, 3, nil)
	_, stats, err := tr.TrainLargeBatch(batch, nn.NewSGD(0.01, 0), 0)
	if err != nil {
		t.Fatal(err)
	}
	if stats.VirtualBatches != 3 || stats.DroppedExamples != 1 {
		t.Fatalf("depth-1 stats = %+v, want 3 virtual batches / 1 dropped", stats)
	}

	model := nn.TinyCNN(1, 8, 8, 4, rand.New(rand.NewSource(1)))
	pipe, err := NewTrainPipeline(cfg, model, nil, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer pipe.Close()
	_, pstats, err := pipe.TrainLargeBatch(SingleFleetSource{F: gpu.NewHonestCluster(3)}, batch, nn.NewSGD(0.01, 0), 0)
	if err != nil {
		t.Fatal(err)
	}
	if pstats.VirtualBatches != 3 || pstats.DroppedExamples != 1 {
		t.Fatalf("pipelined stats = %+v, want 3 virtual batches / 1 dropped", pstats)
	}
}

// TestAlgorithm2ShardEquivalence pins Algorithm 2's invariance to the
// shard granularity: single-shard and small-shard aggregation produce
// bit-identical weights and losses, serial and pipelined alike, and the
// sealed-eviction path under a real enclave changes nothing.
func TestAlgorithm2ShardEquivalence(t *testing.T) {
	cfg := Config{VirtualBatch: 2, Seed: 11}
	batch := trainData(8)
	type run struct {
		name       string
		shardElems int
		encl       bool
		pipelined  bool
	}
	runs := []run{
		{name: "serial-single-shard", shardElems: 0},
		{name: "serial-97-elem-shards", shardElems: 97},
		{name: "serial-enclave", shardElems: 64, encl: true},
		{name: "pipelined-single-shard", shardElems: 0, pipelined: true},
		{name: "pipelined-33-elem-shards", shardElems: 33, pipelined: true},
		{name: "pipelined-enclave", shardElems: 64, encl: true, pipelined: true},
	}
	var refModel *nn.Model
	var refLoss float64
	for i, r := range runs {
		model := nn.TinyCNN(1, 8, 8, 4, rand.New(rand.NewSource(42)))
		var encl *enclave.Enclave
		if r.encl {
			var err error
			encl, err = enclave.New(enclave.DefaultEPCBytes)
			if err != nil {
				t.Fatal(err)
			}
		}
		opt := nn.NewSGD(0.05, 0.9)
		var loss float64
		var err error
		if r.pipelined {
			var pipe *TrainPipeline
			pipe, err = NewTrainPipeline(cfg, model, encl, 2)
			if err != nil {
				t.Fatal(err)
			}
			loss, _, err = pipe.TrainLargeBatch(SingleFleetSource{F: gpu.NewHonestCluster(3)}, batch, opt, r.shardElems)
			pipe.Close()
		} else {
			var trn *Trainer
			trn, err = NewTrainer(cfg, model, gpu.NewHonestCluster(3), encl)
			if err != nil {
				t.Fatal(err)
			}
			loss, _, err = trn.TrainLargeBatch(batch, opt, r.shardElems)
			trn.Close()
		}
		if err != nil {
			t.Fatalf("%s: %v", r.name, err)
		}
		if r.encl && encl.Stats().SealOps == 0 {
			t.Fatalf("%s: enclave sealing never engaged", r.name)
		}
		if i == 0 {
			refModel, refLoss = model, loss
			continue
		}
		if loss != refLoss {
			t.Fatalf("%s: loss %v != reference %v", r.name, loss, refLoss)
		}
		sameBits(t, r.name, refModel, model)
	}
}

// TestTrainPipelineValidation covers the refusal paths.
func TestTrainPipelineValidation(t *testing.T) {
	model := nn.TinyCNN(1, 8, 8, 4, rand.New(rand.NewSource(1)))
	if _, err := NewTrainPipeline(Config{VirtualBatch: 2, Seed: 1}, model, nil, 0); err == nil {
		t.Fatal("depth 0 train pipeline must be rejected")
	}
	serial, err := NewTrainPipeline(Config{VirtualBatch: 2, Seed: 1}, model, nil, 1)
	if err != nil {
		t.Fatalf("depth 1 is the serial runtime and must build: %v", err)
	}
	serial.Close()
	pipe, err := NewTrainPipeline(Config{VirtualBatch: 2, Seed: 1}, model, nil, 2)
	if err != nil {
		t.Fatal(err)
	}
	src := SingleFleetSource{F: gpu.NewHonestCluster(3)}
	if _, _, err := pipe.TrainLargeBatch(src, trainData(1), nn.NewSGD(0.1, 0), 0); err == nil {
		t.Fatal("batch smaller than K must be rejected")
	}
	small := SingleFleetSource{F: gpu.NewHonestCluster(2)}
	if _, _, err := pipe.TrainLargeBatch(small, trainData(4), nn.NewSGD(0.1, 0), 0); err == nil {
		t.Fatal("undersized fleet must be rejected")
	}
	if err := pipe.EnableRecovery(); err == nil {
		t.Fatal("EnableRecovery without Redundancy >= 2 must be rejected")
	}
	pipe.Close()
	if _, _, err := pipe.TrainLargeBatch(src, trainData(4), nn.NewSGD(0.1, 0), 0); err == nil {
		t.Fatal("TrainLargeBatch after Close must be rejected")
	}
	pipe.Close() // idempotent
}

// TestMalformedInputIsAnError: an image of the wrong length or a label
// outside [0, Classes) fails the call that carries it before any lane is
// taken — on a lane it would panic the goroutine — and the runtime serves
// the next well-formed batch.
func TestMalformedInputIsAnError(t *testing.T) {
	cfg := Config{VirtualBatch: 2, Seed: 1}
	cluster := gpu.NewHonestCluster(3)
	model := nn.TinyCNN(1, 8, 8, 4, rand.New(rand.NewSource(1)))

	pipe, err := NewPipeline(cfg, model, nil, "bad/", 1)
	if err != nil {
		t.Fatal(err)
	}
	defer pipe.Close()
	images := pipeBatches(2, 1, 64)[0]
	if _, err := pipe.Submit(cluster, [][]float64{images[0], images[1][:10]}); err == nil {
		t.Fatal("a short image was submitted")
	}
	if _, err := pipe.Predict(cluster, images); err != nil {
		t.Fatalf("the next batch: %v", err)
	}

	train, err := NewTrainPipeline(cfg, model, nil, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer train.Close()
	src := SingleFleetSource{F: cluster}
	for name, spoil := range map[string]func(*dataset.Example){
		"long image":     func(ex *dataset.Example) { ex.Image = append(ex.Image, 0) },
		"label too high": func(ex *dataset.Example) { ex.Label = model.Classes },
		"negative label": func(ex *dataset.Example) { ex.Label = -1 },
	} {
		batch := trainData(4)
		spoil(&batch[3])
		if _, _, err := train.TrainLargeBatch(src, batch, nn.NewSGD(0.05, 0), 0); err == nil {
			t.Fatalf("%s: the batch trained", name)
		}
	}
	if _, _, err := train.TrainLargeBatch(src, trainData(4), nn.NewSGD(0.05, 0), 0); err != nil {
		t.Fatalf("the next batch: %v", err)
	}
}
