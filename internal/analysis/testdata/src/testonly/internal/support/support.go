// Package support is imported only by a test (lib_test.go): test
// support, exempt although no non-test code calls Helper.
package support

import "corpus/internal/kernels"

// Helper is a test helper.
func Helper() int { return kernels.Used() }
