package main

// Example pins the audit's printed report byte for byte: the RNG is
// seeded, so every line is deterministic.
func Example() {
	main()
	// Output:
	// K=3, M=1, E=1: 5 GPUs, honest round verifies: true
	// GPU 2 tampers: verification error = masking: integrity violation detected in GPU results: response 4 fails its parity check
	// E=2 audit with culprit 0: identified [0]
	// E=2 audit with culprit 1: identified [1]
	// E=2 audit with culprit 2: identified [2]
	// E=2 audit with culprit 3: identified [3]
	// E=2 audit with culprit 4: identified [4]
	// E=2 audit with culprit 5: identified [5]
	//
	// with E=1 tampering is detectable; E=2 makes it attributable
}
