// Package kernels is imported only by support, itself test support: test
// support too, exempt although no non-test code calls Unused and only
// support calls Used.
package kernels

// Used is a reference kernel support composes.
func Used() int { return 1 }

// Unused is a reference kernel only tests call.
func Unused() int { return 2 }
