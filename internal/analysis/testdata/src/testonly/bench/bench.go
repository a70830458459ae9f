// Package bench stands for the module's benchmark tree: it imports lib,
// but its references do not count as uses.
package bench

import "corpus/internal/lib"

// Run calls lib.BenchOnly.
func Run() int { return lib.BenchOnly() }
