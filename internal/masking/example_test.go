package masking_test

import (
	"fmt"
	"math/rand"

	"darknight/internal/field"
	"darknight/internal/masking"
)

// Example walks the paper's core loop once: encode two private inputs with
// one noise vector, apply a linear map per coded input ("on the GPUs"),
// decode exactly.
func Example() {
	rng := rand.New(rand.NewSource(1))
	code, err := masking.New(masking.Params{K: 2, M: 1}, rng)
	if err != nil {
		panic(err)
	}

	// Two private "images" and a public linear operator W.
	x1 := field.Vec{10, 20, 30}
	x2 := field.Vec{7, 7, 7}
	w := field.RandMat(rng, 2, 3)
	apply := func(x field.Vec) field.Vec { return field.MatVec(w, x) }

	coded, err := code.Encode([]field.Vec{x1, x2}, rng)
	if err != nil {
		panic(err)
	}
	// Each of the K+M coded vectors goes to ONE untrusted GPU.
	results := make([]field.Vec, len(coded))
	for j := range coded {
		results[j] = apply(coded[j])
	}
	decoded := []field.Vec{field.NewVec(2), field.NewVec(2)}
	if err := code.DecodeForwardSubsetInto(decoded, results, nil); err != nil {
		panic(err)
	}
	fmt.Println("exact:", decoded[0].Equal(apply(x1)) && decoded[1].Equal(apply(x2)))
	// Output: exact: true
}

// ExampleCode_VerifyForward shows integrity detection with one redundant
// equation (§4.4).
func ExampleCode_VerifyForward() {
	rng := rand.New(rand.NewSource(2))
	code, err := masking.New(masking.Params{K: 2, M: 1, Redundancy: 1}, rng)
	if err != nil {
		panic(err)
	}
	w := field.RandMat(rng, 2, 3)
	apply := func(x field.Vec) field.Vec { return field.MatVec(w, x) }
	coded, err := code.Encode([]field.Vec{{1, 2, 3}, {4, 5, 6}}, rng)
	if err != nil {
		panic(err)
	}
	results := make([]field.Vec, len(coded))
	for j := range coded {
		results[j] = apply(coded[j])
	}
	fmt.Println("honest ok:", code.VerifyForward(results) == nil)

	results[1][0] = field.Add(results[1][0], 1) // a GPU tampers one value
	fmt.Println("tamper detected:", code.VerifyForward(results) != nil)
	// Output:
	// honest ok: true
	// tamper detected: true
}
