//go:build perfgate && race

package darknight

// raceEnabled reports whether the race detector instruments this build;
// wall-clock speedup assertions are skipped under it.
const raceEnabled = true
