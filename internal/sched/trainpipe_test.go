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
)

// trainData draws a deterministic synthetic training set.
func trainData(n int) []dataset.Example {
	d := dataset.SyntheticCIFAR(rand.New(rand.NewSource(7)), n, 4, 1, 8, 8, 0.05)
	return d.Items
}

// sameWeights asserts two models' parameters are bit-for-bit identical.
func sameWeights(t *testing.T, tag string, a, b *nn.Model) {
	t.Helper()
	ap, bp := a.Params(), b.Params()
	if len(ap) != len(bp) {
		t.Fatalf("%s: param count %d vs %d", tag, len(ap), len(bp))
	}
	for pi := range ap {
		for i := range ap[pi].W.Data {
			if ap[pi].W.Data[i] != bp[pi].W.Data[i] {
				t.Fatalf("%s: param %s weight[%d]: %v != %v (weights must be bit-identical)",
					tag, ap[pi].Name, i, ap[pi].W.Data[i], bp[pi].W.Data[i])
			}
		}
	}
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
// the shared-cluster and the fleet-managed gang source — TrainLargeBatch
// must leave the model with weights bit-identical to the lane-less
// reference's (serialRef: no lanes, no token contention, no noise pool, no
// gradient redirection, so the pin compares two implementations), and
// report the same losses. Decode exactness over F_p plus
// virtual-batch-order aggregation makes overlap invisible to the result.
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
			build := func() ([]gpu.Device, *gpu.Cluster) {
				devs := make([]gpu.Device, gang)
				for i := range devs {
					devs[i] = gpu.NewHonest(i)
					if i == c.slowSlot {
						devs[i] = gpu.NewSlow(devs[i], time.Millisecond)
					}
				}
				return devs, gpu.NewCluster(devs...)
			}
			batch := trainData(6 * c.k)
			opt := func() *nn.SGD { return nn.NewSGD(0.05, 0.9) }

			// Lane-less reference.
			serialModel := nn.TinyCNN(1, 8, 8, 4, rand.New(rand.NewSource(42)))
			_, serialCluster := build()
			ref, err := newSerialRef(cfg, serialModel, serialCluster, nil)
			if err != nil {
				t.Fatal(err)
			}
			sOpt := opt()
			var serialLosses []float64
			for step := 0; step < 2; step++ {
				loss, _, err := ref.trainLargeBatch(batch, sOpt, c.shardElems)
				if err != nil {
					t.Fatal(err)
				}
				serialLosses = append(serialLosses, loss)
			}

			// The runtime at this depth, on an identically initialized model.
			pipeModel := nn.TinyCNN(1, 8, 8, 4, rand.New(rand.NewSource(42)))
			_, pipeCluster := build()
			pipe, err := NewTrainPipeline(cfg, pipeModel, nil, "tp/", c.depth)
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
			pOpt := opt()
			for step := 0; step < 2; step++ {
				loss, stats, err := pipe.TrainLargeBatch(src, batch, pOpt, c.shardElems)
				if err != nil {
					t.Fatal(err)
				}
				if loss != serialLosses[step] {
					t.Fatalf("step %d: depth-%d loss %v != reference %v", step, c.depth, loss, serialLosses[step])
				}
				if stats.VirtualBatches != 6 {
					t.Fatalf("step %d: %d virtual batches, want 6", step, stats.VirtualBatches)
				}
			}
			sameWeights(t, c.name, serialModel, pipeModel)

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

// swapFleet opens its first nForward flights on the forward fleet, then
// switches every flight (including the cache refill's identity re-store) to
// the backward fleet — simulating a gang whose devices were replaced
// between a batch's forward and backward passes.
type swapFleet struct {
	fw, bw   Fleet
	nForward int
	flights  int
	swap     func() // invoked once, at the switch point
}

func (f *swapFleet) Size() int { return f.fw.Size() }

func (f *swapFleet) BeginBlock(n int) (*gpu.BlockFlight, error) {
	f.flights++
	if f.flights <= f.nForward {
		return f.fw.BeginBlock(n)
	}
	if f.swap != nil {
		f.swap()
		f.swap = nil
	}
	return f.bw.BeginBlock(n)
}

// TestBackwardCacheMissRefill quarantines a device between the forward and
// backward passes: the replacement gang misses the cached coded inputs (and
// surviving devices may sit at different slots — the silent-garbage case
// the slot-scoped keys turn into a clean miss), the engine re-encodes the
// trace and re-stores it, and the training step completes with weights
// bit-identical to an undisturbed run.
func TestBackwardCacheMissRefill(t *testing.T) {
	cfg := Config{VirtualBatch: 2, Collusion: 1, Redundancy: 0, Seed: 3}
	const gang = 3
	batch := trainData(cfg.VirtualBatch)

	// Control: undisturbed depth-1 run.
	control := nn.TinyCNN(1, 8, 8, 4, rand.New(rand.NewSource(42)))
	ctrlTrainer, err := NewTrainer(cfg, control, gpu.NewHonestCluster(gang), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer ctrlTrainer.Close()
	ctrlOpt := nn.NewSGD(0.05, 0.9)
	ctrlLoss, _, err := ctrlTrainer.TrainLargeBatch(batch, ctrlOpt, 0)
	if err != nil {
		t.Fatal(err)
	}

	// Disturbed: a 5-device fleet, gang of 3; after the forward pass the
	// first grant is released with slot 1 reported faulty (quarantine), and
	// the backward runs on a fresh grant.
	model := nn.TinyCNN(1, 8, 8, 4, rand.New(rand.NewSource(42)))
	fm := fleet.NewManager(gpu.NewHonestCluster(gang+2), fleet.Config{ProbationProbability: -1})
	g1, err := fm.Acquire(context.Background(), "train", gang)
	if err != nil {
		t.Fatal(err)
	}
	sw := &swapFleet{fw: g1, nForward: 2} // TinyCNN has 2 linear layers
	sw.swap = func() {
		g1.ReportFaults([]int{1})
		g1.Release()
		g2, err := fm.Acquire(context.Background(), "train", gang)
		if err != nil {
			t.Fatal(err)
		}
		sw.bw = g2
	}
	pipe, err := NewTrainPipeline(cfg, model, nil, "miss/", 2)
	if err != nil {
		t.Fatal(err)
	}
	defer pipe.Close()
	opt := nn.NewSGD(0.05, 0.9)
	loss, _, err := pipe.TrainLargeBatch(SingleFleetSource{F: sw}, batch, opt, 0)
	if err != nil {
		t.Fatal(err)
	}
	if sw.bw != nil {
		if g, ok := sw.bw.(*fleet.Grant); ok {
			g.Release()
		}
	}
	if loss != ctrlLoss {
		t.Fatalf("disturbed loss %v != control %v", loss, ctrlLoss)
	}
	if pipe.CacheRefills() == 0 {
		t.Fatal("backward ran without a cache refill — the quarantine scenario was not exercised")
	}
	sameWeights(t, "cache-miss-refill", control, model)
	if st := fm.Stats(); st.QuarantineEvents == 0 {
		t.Fatalf("no quarantine recorded: %+v", st)
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
	pipe, err := NewTrainPipeline(cfg, model, nil, "drop/", 2)
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
			pipe, err = NewTrainPipeline(cfg, model, encl, "a2/"+r.name, 2)
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
		sameWeights(t, r.name, refModel, model)
	}
}

// TestTrainPipelineValidation covers the refusal paths.
func TestTrainPipelineValidation(t *testing.T) {
	model := nn.TinyCNN(1, 8, 8, 4, rand.New(rand.NewSource(1)))
	if _, err := NewTrainPipeline(Config{VirtualBatch: 2, Seed: 1}, model, nil, "v/", 0); err == nil {
		t.Fatal("depth 0 train pipeline must be rejected")
	}
	serial, err := NewTrainPipeline(Config{VirtualBatch: 2, Seed: 1}, model, nil, "v/", 1)
	if err != nil {
		t.Fatalf("depth 1 is the serial runtime and must build: %v", err)
	}
	serial.Close()
	pipe, err := NewTrainPipeline(Config{VirtualBatch: 2, Seed: 1}, model, nil, "v/", 2)
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
