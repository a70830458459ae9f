//go:build perfgate && !race

package darknight

const raceEnabled = false
