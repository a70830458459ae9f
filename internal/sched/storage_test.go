package sched

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"
	"time"

	"darknight/internal/enclave"
	"darknight/internal/fleet"
	"darknight/internal/gpu"
	"darknight/internal/nn"
	"darknight/internal/spec/stack"
)

// flightLog is a GangSource that records every flight the batches open on
// the gangs it hands out.
type flightLog struct {
	GangSource
	mu      sync.Mutex
	flights []*gpu.BlockFlight
}

// loggedGang is a gang whose flights its log records.
type loggedGang struct {
	Fleet
	log *flightLog
}

func (g loggedGang) BeginBlock(n int) (*gpu.BlockFlight, error) {
	f, err := g.Fleet.BeginBlock(n)
	if err == nil {
		g.log.mu.Lock()
		g.log.flights = append(g.log.flights, f)
		g.log.mu.Unlock()
	}
	return f, err
}

func (l *flightLog) Acquire() (Fleet, error) {
	f, err := l.GangSource.Acquire()
	if err != nil {
		return nil, err
	}
	return loggedGang{Fleet: f, log: l}, nil
}

func (l *flightLog) Release(f Fleet, culprits []int, err error) {
	l.GangSource.Release(f.(loggedGang).Fleet, culprits, err)
}

// requireRecycled fails unless every flight the log recorded has recycled
// everything it kept. End recycles at once on slots whose calls cannot
// block (honest and slow devices); on any other device the recycling
// queued behind the batch's jobs may still be on its way when the batch
// returns: with wait set, the check allows it until guard.
func requireRecycled(t *testing.T, tag string, l *flightLog, wait bool) {
	t.Helper()
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.flights) == 0 {
		t.Fatalf("%s: no flight was opened", tag)
	}
	deadline := time.Now().Add(guard)
	for i, f := range l.flights {
		for f.Kept() != 0 && wait && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		if n := f.Kept(); n != 0 {
			t.Fatalf("%s: flight %d still keeps %d coded inputs after its batch ended", tag, i, n)
		}
	}
}

// TestTrainDeviceStorageBounded: a virtual batch's coded inputs are kept
// by its flight only until the batch's backward pass has read them (§6),
// so after every TrainLargeBatch — on a bare cluster, on fleet gangs whose
// quorum laggards keep their inputs after the gather returned, and on
// batches that fail — every flight the step opened has recycled what it
// kept.
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
				deep(), nil, c.depth)
			if err != nil {
				t.Fatal(err)
			}
			defer pipe.Close()
			src := &flightLog{GangSource: SingleFleetSource{F: cluster}}
			var fm *fleet.Manager
			if c.fleetManaged {
				fm = fleet.NewManager(cluster, fleet.Config{})
				src.GangSource = &managerSource{m: fm, gang: gang}
			}
			opt := nn.NewSGD(0.05, 0.9)
			for step := 0; step < 3; step++ {
				if _, _, err := pipe.TrainLargeBatch(src, trainData(vbatches*c.k), opt, 0); err != nil {
					t.Fatal(err)
				}
				requireRecycled(t, fmt.Sprintf("step %d", step), src, false)
			}
			if len(c.slow) > 0 {
				// Proof the late-keep case ran: gathers left laggards behind.
				if st := fm.Stats(); st.StragglerEvents == 0 {
					t.Fatalf("no quorum gather returned around the slow device: %+v", st)
				}
			}
		})
	}

	t.Run("tamper-without-recovery", func(t *testing.T) {
		devs := honestDevices(4) // K=2, M=1, E=1
		devs[1] = gpu.NewMalicious(devs[1], gpu.FaultPolicy{EveryNth: 1})
		src := &flightLog{GangSource: SingleFleetSource{F: gpu.NewCluster(devs...)}}
		pipe, err := NewTrainPipeline(Config{VirtualBatch: 2, Redundancy: 1, Seed: 1}, deep(), nil, 2)
		if err != nil {
			t.Fatal(err)
		}
		defer pipe.Close()
		_, _, err = pipe.TrainLargeBatch(src, trainData(vbatches*2), nn.NewSGD(0.05, 0), 0)
		var ie *IntegrityError
		if !errors.As(err, &ie) {
			t.Fatalf("step error = %v, want an integrity violation", err)
		}
		// The tampering wrapper's calls are not ones End waits for.
		requireRecycled(t, "tampered batches", src, true)
	})

	t.Run("expired-deadline", func(t *testing.T) {
		// Every device holds its answers 200 ms, so lin1 — shipped well
		// before the deadline — is kept on every slot and gathered after
		// it: lin2's deadline check fails the batch mid-walk.
		const delay = 200 * time.Millisecond
		devs := honestDevices(3)
		for i := range devs {
			devs[i] = gpu.NewSlow(devs[i], delay)
		}
		src := &flightLog{GangSource: SingleFleetSource{F: gpu.NewCluster(devs...)}}
		pipe, err := NewTrainPipeline(Config{VirtualBatch: 2, Seed: 1}, deep(), nil, 1)
		if err != nil {
			t.Fatal(err)
		}
		defer pipe.Close()
		pipe.all[0].deadline = time.Now().Add(delay / 2)
		_, _, err = pipe.TrainLargeBatch(src, trainData(2), nn.NewSGD(0.05, 0), 0)
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("step error = %v, want context.DeadlineExceeded", err)
		}
		if ps := pipe.PhaseStats(); ps.Offloads != 1 {
			t.Fatalf("%d offloads, want 1 (lin1 kept, lin2 stopped by the deadline)", ps.Offloads)
		}
		requireRecycled(t, "expired batch", src, false)
	})
}

// TestSharedClusterTrainBesideInference runs a depth-2 TrainPipeline,
// whose two lanes share one bare cluster, beside an Inferencer serving on
// the same cluster, so flights of both runtimes overlap on every device.
// What a batch's devices keep belongs to its own flight, so no flight can
// read another's inputs: the trained weights and losses, and every
// inference batch's logits, are bit-identical to internal/spec/stack's.
func TestSharedClusterTrainBesideInference(t *testing.T) {
	const k, steps, vbatches = 2, 3, 4
	deep := func() *nn.Model { return nn.DeepMLP(1, 8, 8, 4, 12, rand.New(rand.NewSource(42))) }
	batch := trainData(vbatches * k)
	specModel := deep()
	specLosses := specTrain(specModel, k, batch, steps)
	images := [][]float64{batch[0].Image, batch[1].Image}
	want := stack.New(deep(), k).Forward(images)

	cluster := gpu.NewHonestCluster(k + 1) // K=2, M=1
	model := deep()
	pipe, err := NewTrainPipeline(Config{VirtualBatch: k, Seed: 1}, model, nil, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer pipe.Close()
	inf, err := NewInferencer(Config{VirtualBatch: k, Seed: 9}, deep(), nil, "")
	if err != nil {
		t.Fatal(err)
	}
	defer inf.Close()

	stop, done := make(chan struct{}), make(chan error, 1)
	served := 0
	go func() {
		for {
			select {
			case <-stop:
				done <- nil
				return
			default:
			}
			tk, err := inf.Submit(cluster, images)
			if err == nil {
				err = tk.Wait()
			}
			if err != nil {
				done <- err
				return
			}
			for i, l := range tk.Logits() {
				for j, v := range l.Data {
					if math.Float64bits(v) != math.Float64bits(want[i].Data[j]) {
						done <- fmt.Errorf("inference batch %d image %d logit %d: %v, spec %v", served, i, j, v, want[i].Data[j])
						return
					}
				}
			}
			served++
		}
	}()
	opt := nn.NewSGD(0.05, 0.9)
	for step := 0; step < steps; step++ {
		loss, _, err := pipe.TrainLargeBatch(SingleFleetSource{F: cluster}, batch, opt, 0)
		if err != nil {
			t.Fatal(err)
		}
		if loss != specLosses[step] {
			t.Fatalf("step %d: loss %v beside inference, spec %v", step, loss, specLosses[step])
		}
	}
	close(stop)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if served == 0 {
		t.Fatal("no inference batch ran beside training")
	}
	sameBits(t, "trained beside inference", specModel, model)
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
		nn.DeepMLP(1, 8, 8, 4, 12, rand.New(rand.NewSource(42))), encl, 1)
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
