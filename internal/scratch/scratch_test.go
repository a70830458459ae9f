package scratch

import "testing"

// TestPoolRoundTripAllocs pins a warm Get/Put round trip at zero
// allocations: the slice headers the class pools hold are recycled, not
// rebuilt on every Put.
func TestPoolRoundTripAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector deliberately bypasses sync.Pool, so allocation counts are meaningless under -race")
	}
	var p Pool[uint32]
	p.Put(p.Get(100)) // warm the class
	if n := testing.AllocsPerRun(100, func() { p.Put(p.Get(100)) }); n != 0 {
		t.Fatalf("Get/Put round trip: %v allocs, want 0", n)
	}
	if s := p.Get(100); len(s) != 100 || cap(s) != 128 {
		t.Fatalf("Get(100): len %d cap %d, want 100 and the class size 128", len(s), cap(s))
	}
}
