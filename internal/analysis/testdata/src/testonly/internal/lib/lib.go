// Package lib declares the exported names the testonly corpus judges.
// Package app is its non-test user, package bench its benchmark user, and
// lib_test.go its test; only app's references count.
package lib

// Used is called from non-test code (package app): clean.
func Used() int { return SamePackage() + helper() }

// SamePackage is called by Used: its own package counts as a user.
func SamePackage() int { return 1 }

// helper is unexported: out of scope.
func helper() int { return 2 }

// OnlyTested is the bug class: only lib_test.go calls it.
func OnlyTested() int { return 3 } // want "exported func OnlyTested is referenced by no non-test code"

// BenchOnly is called only from the bench tree, whose uses do not count.
func BenchOnly() int { return 4 } // want "exported func BenchOnly"

// Limit is a constant only the test reads.
const Limit = 10 // want "exported const Limit"

// Shape is an interface non-test code (package app) references.
type Shape interface{ Area() int }

// Square is constructed by app.
type Square struct{ Side int }

// Area implements Shape: no non-test code calls it by name, but it runs
// through the interface.
func (s Square) Area() int { return s.Side * s.Side }

// String implements fmt.Stringer, which fmt asserts at run time.
func (s Square) String() string { return "square" }

// Perimeter is in no referenced interface and has no caller.
func (s Square) Perimeter() int { return 4 * s.Side } // want "exported method Square.Perimeter"

// Circle is a type only the test uses.
type Circle struct{ R int } // want "exported type Circle"

// Blessed is only tested, and kept on purpose with a reason.
//
//lint:ignore testonly blessed: the corpus keeps this fixture on purpose
func Blessed() int { return 5 }
