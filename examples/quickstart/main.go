// Quickstart: train a small CNN privately on synthetic data through the
// full DarKnight pipeline — inputs are masked in the (software) enclave,
// linear algebra runs on simulated untrusted GPUs, gradients decode exactly
// — then run masked inference.
package main

import (
	"fmt"
	"log"

	"darknight"
)

func main() {
	// A model and a deployment: K=2 inputs coded per virtual batch,
	// tolerating 1 colluding GPU, on a minimal 3-GPU cluster.
	model := darknight.TinyCNN(1, 8, 8, 4, 1)
	sys, err := darknight.NewSystem(model, darknight.Config{
		VirtualBatch: 2,
		Seed:         42,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer sys.Close()

	data := darknight.SyntheticDataset(240, 4, 1, 8, 8, 7)
	train, test := data[:192], data[192:]

	fmt.Printf("model %s (%d params) — private training on %d examples\n",
		model.Name(), model.ParamCount(), len(train))
	for epoch := 1; epoch <= 4; epoch++ {
		var loss float64
		batches := 0
		for i := 0; i+8 <= len(train); i += 8 {
			l, err := sys.TrainBatch(train[i : i+8])
			if err != nil {
				log.Fatal(err)
			}
			loss += l
			batches++
		}
		fmt.Printf("  epoch %d: loss %.4f  test acc %.3f\n",
			epoch, loss/float64(batches), sys.Evaluate(test))
	}

	// Masked inference on a virtual batch of 2 images.
	preds, err := sys.Predict([][]float64{test[0].Image, test[1].Image})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("private inference: predicted %v, true [%d %d]\n",
		preds, test[0].Label, test[1].Label)

	tr := sys.GPUTraffic()
	fmt.Printf("untrusted GPUs executed %d jobs and never saw a raw input\n", tr.Jobs)
}
