// Private inference: the Fig 6 scenario. Serve predictions with DarKnight's
// forward coding and compare against the Slalom baseline (§7.2) on the same
// model — and demonstrate why Slalom's precomputed unblinding breaks the
// moment the model trains.
package main

import (
	"fmt"
	"log"
	"math/rand"

	"darknight"
	"darknight/internal/dataset"
	"darknight/internal/nn"
	"darknight/internal/slalom"
)

func main() {
	// Shared model for both engines.
	rng := rand.New(rand.NewSource(21))
	model := nn.TinyCNN(1, 8, 8, 4, rng)
	data := dataset.SyntheticCIFAR(rand.New(rand.NewSource(22)), 16, 4, 1, 8, 8, 0.05)

	// DarKnight inference with integrity verification (K=3, E=1).
	dkModel := darknight.TinyCNN(1, 8, 8, 4, 21) // same seed → same weights
	sys, err := darknight.NewSystem(dkModel, darknight.Config{
		VirtualBatch: 3,
		Redundancy:   1,
		Seed:         23,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer sys.Close()
	images := [][]float64{data.Items[0].Image, data.Items[1].Image, data.Items[2].Image}
	dkPreds, err := sys.Predict(images)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("DarKnight(3)+integrity predictions: %v\n", dkPreds)

	// Slalom inference on the identical weights.
	eng := slalom.New(model, true, 24)
	for i := 0; i < 3; i++ {
		p, err := eng.Infer(data.Items[i].Image)
		if err != nil {
			log.Fatal(err)
		}
		if p != dkPreds[i] {
			log.Fatalf("image %d: Slalom %d != DarKnight %d", i, p, dkPreds[i])
		}
	}
	fmt.Println("Slalom agrees on all predictions (same weights, honest GPUs)")

	// Now "train" one step: perturb the weights, as SGD would.
	lin := model.LinearLayers()[0]
	wd := lin.WeightData()
	for i := range wd {
		wd[i] += 0.05
	}
	x := data.Items[0].Image[:lin.InLen()]
	stale := eng.StaleDecode(0, lin, x)
	fresh := lin.LinearForwardFloat(x)
	var worst float64
	for i := range fresh {
		if d := stale[i] - fresh[i]; d > worst || -d > worst {
			if d < 0 {
				d = -d
			}
			worst = d
		}
	}
	fmt.Printf("after ONE weight update, Slalom's stale unblinding is off by up to %.1f\n", worst)
	fmt.Println("— the §7.2 failure mode; DarKnight's per-batch coding needs no precomputation")
}
