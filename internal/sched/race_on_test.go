//go:build race

package sched

// raceEnabled reports whether the race detector instruments this build;
// allocation-count and wall-clock assertions are skipped under it.
const raceEnabled = true
