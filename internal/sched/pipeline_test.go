package sched

import (
	"context"
	"math/rand"
	"testing"
	"time"

	"darknight/internal/fleet"
	"darknight/internal/gpu"
	"darknight/internal/nn"
	"darknight/internal/spec/stack"
	"darknight/internal/tensor"
)

// pipeModel builds the shared test model: small enough to keep the
// property sweep fast, deep enough to exercise several offloads per batch.
func pipeModel() *nn.Model {
	return nn.TinyCNN(1, 8, 8, 4, rand.New(rand.NewSource(5)))
}

// pipeBatches draws r deterministic virtual batches of k images each.
func pipeBatches(k, r, imgLen int) [][][]float64 {
	rng := rand.New(rand.NewSource(6))
	out := make([][][]float64, r)
	for b := range out {
		out[b] = make([][]float64, k)
		for i := range out[b] {
			img := make([]float64, imgLen)
			for j := range img {
				img[j] = rng.Float64()
			}
			out[b][i] = img
		}
	}
	return out
}

func sameLogits(t *testing.T, tag string, batch int, a, b []*tensor.Tensor) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s batch %d: %d vs %d logit tensors", tag, batch, len(a), len(b))
	}
	for i := range a {
		if len(a[i].Data) != len(b[i].Data) {
			t.Fatalf("%s batch %d image %d: logit lengths differ", tag, batch, i)
		}
		for j := range a[i].Data {
			if a[i].Data[j] != b[i].Data[j] {
				t.Fatalf("%s batch %d image %d logit %d: %v != %v (outputs must be bit-identical)",
					tag, batch, i, j, a[i].Data[j], b[i].Data[j])
			}
		}
	}
}

// TestPipelineMatchesSerial is the equivalence property test: across
// K/E/slack operating points — including the quorum/straggler path with a
// deterministically slow device welded into the gang — the Pipeline's
// logits at every depth, one lane included, are bit-for-bit those of
// internal/spec/stack's forward pass on the same virtual batches: plain
// loops with no coding, lanes, noise or flights. Decode exactness over F_p
// makes outputs independent of noise and coefficient draws, so neither the
// coding nor the overlap can change a single bit.
func TestPipelineMatchesSerial(t *testing.T) {
	combos := []struct {
		name           string
		k, m, e, slack int
		slow           bool
		depth, batches int
	}{
		{name: "K2-M1-E0", k: 2, m: 1, e: 0, depth: 2, batches: 5},
		{name: "K2-M1-E1-depth1", k: 2, m: 1, e: 1, depth: 1, batches: 4},
		{name: "K3-M1-E1", k: 3, m: 1, e: 1, depth: 2, batches: 4},
		{name: "K2-M2-E1", k: 2, m: 2, e: 1, depth: 3, batches: 6},
		{name: "K2-M1-E2-slack1", k: 2, m: 1, e: 2, slack: 1, slow: true, depth: 2, batches: 4},
		{name: "K3-M2-E2-slack1", k: 3, m: 2, e: 2, slack: 1, slow: true, depth: 2, batches: 3},
	}
	for _, c := range combos {
		c := c
		t.Run(c.name, func(t *testing.T) {
			cfg := Config{VirtualBatch: c.k, Collusion: c.m, Redundancy: c.e, StragglerSlack: c.slack, Seed: 1}
			gang := c.k + c.m + c.e
			devs := make([]gpu.Device, gang)
			for i := range devs {
				devs[i] = gpu.NewHonest(i)
			}
			if c.slow {
				// One straggler in every gang forces the subset decode path.
				devs[gang-1] = gpu.NewSlow(devs[gang-1], 2*time.Millisecond)
			}
			cluster := gpu.NewCluster(devs...)
			fm := fleet.NewManager(cluster, fleet.Config{})
			model := pipeModel()
			batches := pipeBatches(c.k, c.batches, 64)

			ref := stack.New(model, c.k)
			want := make([][]*tensor.Tensor, len(batches))
			for b, images := range batches {
				want[b] = ref.Forward(images)
			}

			// Pipelined: all batches submitted through one shared grant —
			// overlapping dispatches on the same gang.
			pipe, err := NewPipeline(cfg, model, nil, "pipe/", c.depth)
			if err != nil {
				t.Fatal(err)
			}
			defer pipe.Close()
			pgrant, err := fm.Acquire(context.Background(), "pipe", gang)
			if err != nil {
				t.Fatal(err)
			}
			tickets := make([]*Ticket, len(batches))
			for b, images := range batches {
				tk, err := pipe.Submit(pgrant, images)
				if err != nil {
					t.Fatalf("submit batch %d: %v", b, err)
				}
				tickets[b] = tk
			}
			for b, tk := range tickets {
				if err := tk.Wait(); err != nil {
					t.Fatalf("pipelined batch %d: %v", b, err)
				}
				sameLogits(t, c.name, b, want[b], tk.Logits())
			}
			pgrant.Release()

			ps := pipe.PhaseStats()
			if ps.Offloads == 0 || ps.Wall == 0 {
				t.Fatalf("pipeline recorded no work: %+v", ps)
			}
			if c.slow {
				if st := fm.Stats(); st.StragglerEvents == 0 {
					t.Fatalf("slow-device combo never exercised the quorum path (straggler events = 0)")
				}
			}
		})
	}
}

// TestSerialNoisePoolMatchesInline pins the offline/online noise split on
// the serial runtime: a one-lane Inferencer consuming precomputed pool
// material produces logits bit-identical to internal/spec/stack's, which
// draws no noise at all, and actually hits the pool.
func TestSerialNoisePoolMatchesInline(t *testing.T) {
	cfg := Config{VirtualBatch: 2, Collusion: 1, Redundancy: 1, Seed: 3}
	cluster := gpu.NewHonestCluster(cfg.VirtualBatch + cfg.Collusion + cfg.Redundancy)
	model := pipeModel()
	batches := pipeBatches(cfg.VirtualBatch, 6, 64)

	ref := stack.New(model, cfg.VirtualBatch)
	pooled, err := NewInferencer(cfg, model, nil, "pooled/")
	if err != nil {
		t.Fatal(err)
	}
	defer pooled.Close()

	for b, images := range batches {
		got, err := pooled.Forward(cluster, images)
		if err != nil {
			t.Fatal(err)
		}
		sameLogits(t, "pool-vs-spec", b, ref.Forward(images), got)
	}
	st := pooled.PoolStats()
	if st.Hits == 0 {
		t.Fatalf("pooled inferencer never consumed precomputed noise: %+v", st)
	}
	t.Logf("pool stats: %+v (hit rate %.2f)", st, st.HitRate())
}

// TestPipelineSubmitValidation covers the pipeline's refusal paths.
func TestPipelineSubmitValidation(t *testing.T) {
	cfg := Config{VirtualBatch: 2, Seed: 1}
	model := pipeModel()
	if _, err := NewPipeline(cfg, model, nil, "v/", 0); err == nil {
		t.Fatal("depth 0 pipeline must be rejected")
	}
	pipe, err := NewPipeline(cfg, model, nil, "v/", 1)
	if err != nil {
		t.Fatalf("depth 1 is the serial runtime and must build: %v", err)
	}
	cluster := gpu.NewHonestCluster(pipe.Gang())
	if _, err := pipe.Submit(cluster, make([][]float64, 1)); err == nil {
		t.Fatal("wrong batch size must be rejected")
	}
	small := gpu.NewHonestCluster(pipe.Gang() - 1)
	if _, err := pipe.Submit(small, pipeBatches(2, 1, 64)[0]); err == nil {
		t.Fatal("undersized fleet must be rejected")
	}
	pipe.Close()
	if _, err := pipe.Submit(cluster, pipeBatches(2, 1, 64)[0]); err == nil {
		t.Fatal("submit after Close must be rejected")
	}
	pipe.Close() // idempotent
}

// TestPipelineOverlapsOutstandingDispatches checks the fleet-visible
// signature of pipelining: with per-dispatch device latency, one grant
// carries more than one outstanding dispatch at a time, and the grant's
// async accounting reaches the manager's stats.
func TestPipelineOverlapsOutstandingDispatches(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-sensitive")
	}
	cfg := Config{VirtualBatch: 2, Seed: 1}
	gang := cfg.VirtualBatch + 1
	devs := make([]gpu.Device, gang)
	for i := range devs {
		devs[i] = gpu.NewSlow(gpu.NewHonest(i), time.Millisecond)
	}
	fm := fleet.NewManager(gpu.NewCluster(devs...), fleet.Config{})
	model := pipeModel()
	pipe, err := NewPipeline(cfg, model, nil, "ov/", 2)
	if err != nil {
		t.Fatal(err)
	}
	defer pipe.Close()
	grant, err := fm.Acquire(context.Background(), "t", gang)
	if err != nil {
		t.Fatal(err)
	}
	batches := pipeBatches(cfg.VirtualBatch, 8, 64)
	var tickets []*Ticket
	for _, images := range batches {
		tk, err := pipe.Submit(grant, images)
		if err != nil {
			t.Fatal(err)
		}
		tickets = append(tickets, tk)
	}
	for _, tk := range tickets {
		if err := tk.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	grant.Release()
	st := fm.Stats()
	if st.AsyncDispatches == 0 {
		t.Fatalf("no async dispatches recorded: %+v", st)
	}
	if st.PeakOverlap < 2 {
		t.Fatalf("peak overlap %d, want >= 2 (dispatches never overlapped on the gang)", st.PeakOverlap)
	}
	ps := pipe.PhaseStats()
	if ps.Overlap() <= 1.0 {
		t.Logf("note: overlap ratio %.2f (can dip on loaded runners)", ps.Overlap())
	}
}

// Predict is the synchronous convenience wrapper: Submit then Wait.
func (p *Pipeline) Predict(fleet Fleet, images [][]float64) ([]int, error) {
	t, err := p.Submit(fleet, images)
	if err != nil {
		return nil, err
	}
	if err := t.Wait(); err != nil {
		return nil, err
	}
	return t.Classes(), nil
}
