package lib

import (
	"testing"

	"corpus/internal/support"
)

// The loader reads no _test.go file: these references do not count.
func TestOnly(t *testing.T) {
	_ = OnlyTested() + Limit + Blessed() + Square{}.Perimeter() + Circle{}.R + support.Helper()
}
