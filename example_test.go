package darknight_test

import (
	"fmt"

	"darknight"
)

// Example trains one private batch end to end: the inputs are masked in
// the enclave, the linear algebra runs on simulated untrusted GPUs, and
// the gradient decodes exactly.
func Example() {
	model := darknight.TinyCNN(1, 8, 8, 4, 1)
	sys, err := darknight.NewSystem(model, darknight.Config{
		VirtualBatch: 2,
		Redundancy:   1, // integrity verification on
		Seed:         7,
	})
	if err != nil {
		panic(err)
	}
	defer sys.Close()
	batch := darknight.SyntheticDataset(8, 4, 1, 8, 8, 3)
	if _, err := sys.TrainBatch(batch); err != nil {
		panic(err)
	}
	fmt.Println("private step ok:", sys.GPUTraffic().Jobs > 0)
	// Output: private step ok: true
}
