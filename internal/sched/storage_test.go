package sched

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"darknight/internal/enclave"
	"darknight/internal/fleet"
	"darknight/internal/gpu"
	"darknight/internal/nn"
)

// requireNoStores fails unless every device of the cluster holds no coded
// input. End waits only for slots whose trip cannot block (honest and slow
// devices); on any other device the drop queued behind the batch's jobs may
// still be on its way when the batch returns: with wait set, the check
// allows it until guard.
func requireNoStores(t *testing.T, tag string, c *gpu.Cluster, wait bool) {
	t.Helper()
	deadline := time.Now().Add(guard)
	for i := 0; i < c.Size(); i++ {
		for c.Device(i).Stored() != 0 && wait && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		if n := c.Device(i).Stored(); n != 0 {
			t.Fatalf("%s: device %d still holds %d coded inputs after its batches ended", tag, i, n)
		}
	}
}

// TestTrainDeviceStorageBounded is the training twin of
// TestInferencerDeviceStorageBounded: training keys carry the step counter,
// so a virtual batch's coded inputs must go when its flight ends (§6: the
// devices keep them only until the batch's backward pass has read them).
// After every TrainLargeBatch — on a bare cluster, on fleet gangs whose
// quorum laggards store after the gather returned, and on batches that
// fail — no device holds anything.
func TestTrainDeviceStorageBounded(t *testing.T) {
	deep := func() *nn.Model { return nn.DeepMLP(1, 8, 8, 4, 12, rand.New(rand.NewSource(42))) }
	const vbatches = 4
	for _, c := range []struct {
		name           string
		k, m, e, slack int
		slow           []int // cluster indices of slow devices
		fleetManaged   bool
		depth          int
	}{
		{name: "cluster-depth1", k: 2, m: 1, depth: 1},
		{name: "fleet-depth2-slack1-slow", k: 2, m: 1, e: 2, slack: 1, slow: []int{2}, fleetManaged: true, depth: 2},
	} {
		t.Run(c.name, func(t *testing.T) {
			gang := c.k + c.m + c.e
			devs := honestDevices(gang)
			for _, i := range c.slow {
				devs[i] = gpu.NewSlow(devs[i], time.Millisecond)
			}
			cluster := gpu.NewCluster(devs...)
			pipe, err := NewTrainPipeline(Config{VirtualBatch: c.k, Collusion: c.m, Redundancy: c.e, StragglerSlack: c.slack, Seed: 1},
				deep(), nil, "st/", c.depth)
			if err != nil {
				t.Fatal(err)
			}
			defer pipe.Close()
			var src GangSource = SingleFleetSource{F: cluster}
			var fm *fleet.Manager
			if c.fleetManaged {
				fm = fleet.NewManager(cluster, fleet.Config{})
				src = &managerSource{m: fm, gang: gang}
			}
			opt := nn.NewSGD(0.05, 0.9)
			for step := 0; step < 3; step++ {
				if _, _, err := pipe.TrainLargeBatch(src, trainData(vbatches*c.k), opt, 0); err != nil {
					t.Fatal(err)
				}
				requireNoStores(t, fmt.Sprintf("step %d", step), cluster, false)
			}
			if len(c.slow) > 0 {
				// Proof the late-store case ran: gathers left laggards behind.
				if st := fm.Stats(); st.StragglerEvents == 0 {
					t.Fatalf("no quorum gather returned around the slow device: %+v", st)
				}
			}
		})
	}

	t.Run("tamper-without-recovery", func(t *testing.T) {
		devs := honestDevices(4) // K=2, M=1, E=1
		devs[1] = gpu.NewMalicious(devs[1], gpu.FaultPolicy{EveryNth: 1})
		cluster := gpu.NewCluster(devs...)
		pipe, err := NewTrainPipeline(Config{VirtualBatch: 2, Redundancy: 1, Seed: 1}, deep(), nil, "tamper/", 2)
		if err != nil {
			t.Fatal(err)
		}
		defer pipe.Close()
		_, _, err = pipe.TrainLargeBatch(SingleFleetSource{F: cluster}, trainData(vbatches*2), nn.NewSGD(0.05, 0), 0)
		var ie *IntegrityError
		if !errors.As(err, &ie) {
			t.Fatalf("step error = %v, want an integrity violation", err)
		}
		// The tampering wrapper's trip is not one End waits for.
		requireNoStores(t, "tampered batches", cluster, true)
	})

	t.Run("expired-deadline", func(t *testing.T) {
		// Every device holds its answers 200 ms, so lin1 — shipped well
		// before the deadline — is stored on every device and gathered
		// after it: lin2's deadline check fails the batch mid-walk.
		const delay = 200 * time.Millisecond
		devs := honestDevices(3)
		for i := range devs {
			devs[i] = gpu.NewSlow(devs[i], delay)
		}
		cluster := gpu.NewCluster(devs...)
		pipe, err := NewTrainPipeline(Config{VirtualBatch: 2, Seed: 1}, deep(), nil, "late/", 1)
		if err != nil {
			t.Fatal(err)
		}
		defer pipe.Close()
		pipe.all[0].deadline = time.Now().Add(delay / 2)
		_, _, err = pipe.TrainLargeBatch(SingleFleetSource{F: cluster}, trainData(2), nn.NewSGD(0.05, 0), 0)
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("step error = %v, want context.DeadlineExceeded", err)
		}
		if ps := pipe.PhaseStats(); ps.Offloads != 1 {
			t.Fatalf("%d offloads, want 1 (lin1 stored, lin2 stopped by the deadline)", ps.Offloads)
		}
		requireNoStores(t, "expired batch", cluster, false)
	})
}

// TestLayerKeyFormat pins the device-storage key of a layer's coded inputs,
// built without fmt on the offload path, to its documented form.
func TestLayerKeyFormat(t *testing.T) {
	e := engine{keyspace: "ks/t0/", stepSeq: 1234, linSeq: 7}
	if got, want := e.layerKey(), fmt.Sprintf("%sstep%d/lin%d", e.keyspace, e.stepSeq, e.linSeq); got != want {
		t.Fatalf("per-step key %q, want %q", got, want)
	}
	e.reuseKeys = true
	if got, want := e.layerKey(), fmt.Sprintf("%slin%d", e.keyspace, e.linSeq); got != want {
		t.Fatalf("reused key %q, want %q", got, want)
	}
}

// TestSealGradsAllocations pins Algorithm 2's copy-free sealing: sealing a
// lane's ▽W and aggregating it back costs two allocations — the handle
// slice and the aggregate — however many elements and shards the gradient
// has, because the sealed pages recycle.
func TestSealGradsAllocations(t *testing.T) {
	encl, err := enclave.New(enclave.DefaultEPCBytes)
	if err != nil {
		t.Fatal(err)
	}
	pipe, err := NewTrainPipeline(Config{VirtualBatch: 2, Seed: 1},
		nn.DeepMLP(1, 8, 8, 4, 12, rand.New(rand.NewSource(42))), encl, "seal/", 1)
	if err != nil {
		t.Fatal(err)
	}
	defer pipe.Close()
	rng := rand.New(rand.NewSource(1))
	for _, g := range pipe.grads[0] {
		for i := range g.Data {
			g.Data[i] = rng.NormFloat64()
		}
	}
	for _, shards := range []int{1, 4} {
		shardElems := (pipe.totalElems + shards - 1) / shards
		var agg []float64
		allocs := testing.AllocsPerRun(20, func() {
			h, _, err := pipe.sealGrads(0, shardElems)
			if err != nil {
				t.Fatal(err)
			}
			if agg, err = pipe.store.aggregate([][]uint64{h}, shardElems, pipe.totalElems, len(h)); err != nil {
				t.Fatal(err)
			}
		})
		// The race detector bypasses the page pool's sync.Pool, so there a
		// page, and the pool's header for it, may allocate per shard.
		limit := 2.0
		if raceEnabled {
			limit += 2 * float64(shards)
		}
		if allocs > limit {
			t.Fatalf("%d shards of %d elements: %v allocations, want <= %v", shards, pipe.totalElems, allocs, limit)
		}
		i := 0
		for _, g := range pipe.grads[0] {
			for _, v := range g.Data {
				if math.Float64bits(agg[i]) != math.Float64bits(v) {
					t.Fatalf("%d shards: element %d aggregates to %v, sealed %v", shards, i, agg[i], v)
				}
				i++
			}
		}
	}
}
