// Integrity audit: the §4.4 scenario. Run coded forward passes against
// clusters with tampering GPUs and show (a) detection with the paper's one
// redundant equation, and (b) culprit identification once a second
// redundant equation is available.
package main

import (
	"fmt"
	"math/rand"

	"darknight/internal/field"
	"darknight/internal/masking"
)

// linearMap stands in for one DNN layer's <W, ·> kernel.
func linearMap(rng *rand.Rand, n, out int) func(field.Vec) field.Vec {
	w := field.RandMat(rng, out, n)
	return func(x field.Vec) field.Vec { return field.MatVec(w, x) }
}

func main() {
	rng := rand.New(rand.NewSource(41))
	const n, out = 48, 16

	// --- Detection with E = 1 (the paper's configuration) -------------
	code, err := masking.New(masking.Params{K: 3, M: 1, Redundancy: 1}, rng)
	if err != nil {
		panic(err)
	}
	f := linearMap(rng, n, out)
	inputs := []field.Vec{field.RandVec(rng, n), field.RandVec(rng, n), field.RandVec(rng, n)}
	coded, err := code.Encode(inputs, rng)
	if err != nil {
		panic(err)
	}
	results := make([]field.Vec, len(coded))
	for j := range coded {
		results[j] = f(coded[j])
	}
	fmt.Printf("K=3, M=1, E=1: %d GPUs, honest round verifies: %v\n",
		code.NumCoded(), code.VerifyForward(results) == nil)

	// GPU 2 goes rogue.
	results[2] = results[2].Clone()
	results[2][0] = field.Add(results[2][0], 12345)
	fmt.Printf("GPU 2 tampers: verification error = %v\n", code.VerifyForward(results))

	// --- Attribution with E = 2 ---------------------------------------
	code2, err := masking.New(masking.Params{K: 3, M: 1, Redundancy: 2}, rng)
	if err != nil {
		panic(err)
	}
	coded2, err := code2.Encode(inputs, rng)
	if err != nil {
		panic(err)
	}
	results2 := make([]field.Vec, len(coded2))
	for j := range coded2 {
		results2[j] = f(coded2[j])
	}
	for culprit := 0; culprit < code2.NumCoded(); culprit++ {
		tampered := make([]field.Vec, len(results2))
		copy(tampered, results2)
		tampered[culprit] = tampered[culprit].Clone()
		tampered[culprit][0] = field.Add(tampered[culprit][0], 7)
		found, err := code2.AuditForwardSubset(tampered, nil)
		if err != nil {
			panic(err)
		}
		fmt.Printf("E=2 audit with culprit %d: identified %v\n", culprit, found)
	}
	fmt.Println("\nwith E=1 tampering is detectable; E=2 makes it attributable")
}
