// Package app is the corpus's non-test user of lib.
package app

import "corpus/internal/lib"

// Shape references lib.Shape, so lib.Square's Area counts as used.
var Shape lib.Shape = lib.Square{Side: 2}

// Run calls lib.Used.
func Run() int { return lib.Used() }
