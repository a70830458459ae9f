// Serving: DarKnight as a concurrent private-inference service. A trained
// model is replicated across serving workers, independent clients fire
// single-image requests, and the dynamic batcher coalesces them into
// virtual batches of exactly K — the TEE's coding granularity — padding
// with uniform-noise dummy rows when a lone request's deadline expires
// before K peers arrive.
package main

import (
	"context"
	"fmt"
	"log"
	"sync"
	"time"

	"darknight"
)

func main() {
	const k = 4
	seed := int64(42)

	// Train a model privately first, so the server demonstrably serves
	// learned weights, not initialization noise.
	trained := darknight.TinyCNN(1, 8, 8, 4, seed)
	sys, err := darknight.NewSystem(trained, darknight.Config{VirtualBatch: 2, Seed: seed})
	if err != nil {
		log.Fatal(err)
	}
	defer sys.Close()
	data := darknight.SyntheticDataset(96, 4, 1, 8, 8, seed+1)
	for epoch := 0; epoch < 2; epoch++ {
		for i := 0; i+8 <= len(data); i += 8 {
			if _, err := sys.TrainBatch(data[i : i+8]); err != nil {
				log.Fatal(err)
			}
		}
	}
	fmt.Printf("trained %s to %.2f train accuracy\n", trained.Name(), sys.Evaluate(data))

	// Every worker gets a private replica carrying the trained weights
	// (nn layers cache forward state, so replicas are never shared).
	srv, err := darknight.NewServer(func() *darknight.Model {
		m := darknight.TinyCNN(1, 8, 8, 4, seed)
		if err := m.CopyWeightsFrom(trained); err != nil {
			log.Fatal(err)
		}
		return m
	}, darknight.ServerConfig{
		Config:  darknight.Config{VirtualBatch: k, Seed: seed},
		Workers: 2,
		MaxWait: 5 * time.Millisecond,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer srv.Close()

	// Phase 1: eight concurrent clients. Their unrelated requests coalesce
	// into full K=4 batches — one coded GPU dispatch serves four clients.
	const clients, perClient = 8, 6
	var wg sync.WaitGroup
	correct := make([]int, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for r := 0; r < perClient; r++ {
				ex := data[(c*perClient+r)%len(data)]
				pred, err := srv.Infer(context.Background(), ex.Image)
				if err != nil {
					log.Fatalf("client %d: %v", c, err)
				}
				if pred == ex.Label {
					correct[c]++
				}
			}
		}(c)
	}
	wg.Wait()
	total := 0
	for _, n := range correct {
		total += n
	}
	m := srv.Metrics()
	fmt.Printf("phase 1: %d clients x %d requests, %d/%d correct\n",
		clients, perClient, total, clients*perClient)
	fmt.Printf("         %d batches, occupancy %.2f, p50 %v, p99 %v\n",
		m.Batches, m.Occupancy, m.P50, m.P99)

	// Phase 2: one lone request with no peers. The 5ms batching deadline
	// expires and the batcher flushes a partial batch padded with K-1
	// dummy rows — privacy-neutral, the dummies are uniform noise exactly
	// like the masking code's own noise rows.
	before := srv.Metrics()
	if _, err := srv.Infer(context.Background(), data[0].Image); err != nil {
		log.Fatal(err)
	}
	after := srv.Metrics()
	fmt.Printf("phase 2: lone request served after deadline padding: %d dummy rows in its batch\n",
		after.PaddedRows-before.PaddedRows)
}
