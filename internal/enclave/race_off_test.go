//go:build !race

package enclave

const raceEnabled = false
