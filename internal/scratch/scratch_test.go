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

// TestArenaReuse pins the region lifetime: a second pass requesting the
// same sizes gets the same memory back and allocates nothing, and no slice
// can grow into its neighbour.
func TestArenaReuse(t *testing.T) {
	var a Arena[float64]
	sizes := []int{3, 1000, 5000, 7, 70000}
	pass := func() [][]float64 {
		a.Reset()
		out := make([][]float64, len(sizes))
		for i, n := range sizes {
			out[i] = a.Get(n)
			if len(out[i]) != n || cap(out[i]) != n {
				t.Fatalf("Get(%d): len %d cap %d", n, len(out[i]), cap(out[i]))
			}
			for j := range out[i] {
				out[i][j] = float64(i)
			}
		}
		return out
	}
	first := pass()
	for i, s := range first {
		for _, v := range s {
			if v != float64(i) {
				t.Fatalf("slice %d overlaps a later one", i)
			}
		}
	}
	second := pass()
	for i := range first {
		if &first[i][0] != &second[i][0] {
			t.Fatalf("slice %d moved between passes", i)
		}
	}
	if raceEnabled {
		return
	}
	if n := testing.AllocsPerRun(20, func() {
		a.Reset()
		for _, n := range sizes {
			a.Get(n)
		}
	}); n != 0 {
		t.Fatalf("warm pass: %v allocs, want 0", n)
	}
}
