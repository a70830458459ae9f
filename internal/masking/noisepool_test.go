package masking

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"darknight/internal/field"
)

// waitReady spins until the pool reports at least n refills (the background
// generator has warmed the ring) or the deadline passes.
func waitReady(t testing.TB, p *NoisePool, n int64) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for p.Stats().Refills < n {
		if time.Now().After(deadline) {
			t.Fatalf("pool never refilled %d sets (stats %+v)", n, p.Stats())
		}
		time.Sleep(time.Millisecond)
	}
}

// TestNoisePoolDeterministicStream pins the offline/online equivalence: a
// single in-order consumer sees exactly the noise stream an inline drawer
// with the same seed would produce, set after set, across ring wraparound.
func TestNoisePoolDeterministicStream(t *testing.T) {
	lengths := []int{64, 96, 32}
	const m = 2
	p := NewNoisePool(7, m, lengths, 2*len(lengths))
	defer p.Close()

	ref := rand.New(rand.NewSource(7))
	for i := 0; i < 4*len(lengths); i++ { // two full ring generations
		n := lengths[i%len(lengths)]
		var set *NoiseSet
		deadline := time.Now().Add(2 * time.Second)
		for set = p.Get(n); set == nil; set = p.Get(n) {
			if time.Now().After(deadline) {
				t.Fatalf("set %d (len %d) never became ready", i, n)
			}
			time.Sleep(100 * time.Microsecond)
		}
		if len(set.Rows) != m || set.n != n {
			t.Fatalf("set %d: got %d rows of %d, want %d of %d", i, len(set.Rows), set.n, m, n)
		}
		for r := 0; r < m; r++ {
			want := field.RandVec(ref, n)
			if !set.Rows[r].Equal(want) {
				t.Fatalf("set %d row %d diverges from the inline stream", i, r)
			}
		}
		p.Recycle(set)
	}
}

// TestNoisePoolExhaustionFallsBack drains the ring without recycling and
// checks Get degrades to counted misses instead of blocking.
func TestNoisePoolExhaustionFallsBack(t *testing.T) {
	lengths := []int{128}
	const sets = 3
	p := NewNoisePool(1, 1, lengths, sets)
	defer p.Close()
	waitReady(t, p, sets)

	var held []*NoiseSet
	for i := 0; i < sets; i++ {
		s := p.Get(128)
		if s == nil {
			t.Fatalf("set %d: ring should hold %d sets, got nil", i, sets)
		}
		held = append(held, s)
	}
	// Ring dry, every buffer in flight: the online path must take over.
	if s := p.Get(128); s != nil {
		t.Fatalf("Get on a drained ring returned a set")
	}
	st := p.Stats()
	if st.Hits != sets || st.Misses != 1 {
		t.Fatalf("stats %+v, want %d hits / 1 miss", st, sets)
	}
	if st.HitRate() <= 0.5 {
		t.Fatalf("hit rate %.2f, want > 0.5", st.HitRate())
	}
	// A wrong-length request must miss without consuming the head.
	for _, s := range held {
		p.Recycle(s)
	}
	waitReady(t, p, sets+1)
	if s := p.Get(64); s != nil {
		t.Fatalf("Get(64) on a 128-length ring returned a set")
	}
	if s := p.Get(128); s == nil {
		t.Fatalf("mismatched Get consumed the ring head")
	}
}

// TestNoisePoolCloseDuringRefill closes the pool while the refiller is
// blocked waiting for spare buffers (all sets held by the consumer) and
// while it is actively drawing; Close must not hang or panic either way,
// and post-Close Get/Recycle must be safe no-ops.
func TestNoisePoolCloseDuringRefill(t *testing.T) {
	// Blocked refiller: hold every buffer so the generator parks in Wait.
	p := NewNoisePool(3, 2, []int{4096}, 2)
	waitReady(t, p, 2)
	a, b := p.Get(4096), p.Get(4096)
	if a == nil || b == nil {
		t.Fatalf("warm ring did not yield 2 sets")
	}
	done := make(chan struct{})
	go func() { p.Close(); close(done) }()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatalf("Close hung on a refiller blocked in Wait")
	}
	p.Recycle(a) // recycling into a closed pool is a no-op
	p.Recycle(b)
	if s := p.Get(4096); s != nil {
		t.Fatalf("Get after Close returned a set")
	}

	// Actively drawing refiller: large rows keep it busy mid-draw.
	p2 := NewNoisePool(4, 2, []int{1 << 16}, 4)
	time.Sleep(time.Millisecond)
	closed := make(chan struct{})
	go func() { p2.Close(); close(closed) }()
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatalf("Close hung on an actively drawing refiller")
	}
	p2.Close() // idempotent
}

// TestNoisePoolConcurrentConsumers hammers one pool from several goroutines
// (the pipeline-lane sharing pattern) under -race: every hit must hand out
// an exclusively owned set, and the hit/miss accounting must add up.
func TestNoisePoolConcurrentConsumers(t *testing.T) {
	lengths := []int{256}
	p := NewNoisePool(5, 2, lengths, 8)
	defer p.Close()
	waitReady(t, p, 4)

	const (
		consumers = 4
		rounds    = 200
	)
	var wg sync.WaitGroup
	for c := 0; c < consumers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sum := uint64(0)
			for i := 0; i < rounds; i++ {
				set := p.Get(256)
				if set == nil {
					continue // fallback path; counted as a miss
				}
				// Touch every element like EncodeWith would, then recycle.
				for _, row := range set.Rows {
					for _, v := range row {
						sum += uint64(v)
					}
				}
				p.Recycle(set)
			}
			_ = sum
		}()
	}
	wg.Wait()
	st := p.Stats()
	if st.Hits+st.Misses != consumers*rounds {
		t.Fatalf("hits %d + misses %d != %d Gets", st.Hits, st.Misses, consumers*rounds)
	}
	if st.Hits == 0 {
		t.Fatalf("no hits across %d Gets with a live refiller", consumers*rounds)
	}
}

// BenchmarkNoisePool compares the online noise cost the pool removes: an
// inline uniform draw per layer versus consuming a precomputed set (pure
// pointer traffic when the generator keeps up).
func BenchmarkNoisePool(b *testing.B) {
	const n = 4096
	const m = 2
	b.Run("inline-draw", func(b *testing.B) {
		rng := rand.New(rand.NewSource(9))
		rows := make([]field.Vec, m)
		for i := range rows {
			rows[i] = field.NewVec(n)
		}
		b.SetBytes(int64(m * n * 4))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for r := range rows {
				field.RandVecInto(rng, rows[r])
			}
		}
	})
	// The online hit path, measured white-box with the generator decoupled
	// (a consumed set is re-queued as ready instead of recycled for
	// redrawing): this is exactly what a Get hit costs the encode's
	// critical path — a mutex'd pointer swap, no RNG. A closed loop
	// against the live generator would only measure the offline draw rate;
	// the realistic-cadence hit rate is reported by BenchmarkPipeline.
	b.Run("hit-path", func(b *testing.B) {
		p := NewNoisePool(9, m, []int{n}, 16)
		defer p.Close()
		waitReady(b, p, 8)
		b.SetBytes(int64(m * n * 4))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			set := p.Get(n)
			if set == nil {
				b.Fatal("warm ring missed")
			}
			p.mu.Lock()
			p.ready = append(p.ready, set)
			p.mu.Unlock()
		}
	})
}

// TestNoisePoolMissWarnsOnce: the first exhaustion miss fires the
// undersized-pool warning exactly once per pool, regardless of how many
// misses follow, and carries the row length that missed.
func TestNoisePoolMissWarnsOnce(t *testing.T) {
	var mu sync.Mutex
	var warnings []string
	orig := noisePoolWarn
	noisePoolWarn = func(format string, args ...any) {
		mu.Lock()
		warnings = append(warnings, fmt.Sprintf(format, args...))
		mu.Unlock()
	}
	defer func() { noisePoolWarn = orig }()

	lengths := []int{64}
	p := NewNoisePool(1, 1, lengths, 1)
	defer p.Close()
	waitReady(t, p, 1)

	held := p.Get(64)
	if held == nil {
		t.Fatal("warm ring did not yield a set")
	}
	for i := 0; i < 5; i++ {
		if s := p.Get(64); s != nil {
			t.Fatal("drained ring returned a set")
		}
	}
	if st := p.Stats(); st.Misses != 5 {
		t.Fatalf("misses = %d, want 5", st.Misses)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(warnings) != 1 {
		t.Fatalf("warning fired %d times, want exactly once: %q", len(warnings), warnings)
	}
	if !strings.Contains(warnings[0], "row length 64") || !strings.Contains(warnings[0], "undersized") {
		t.Fatalf("warning text: %q", warnings[0])
	}

	// A second pool warns independently.
	warnings = warnings[:0]
	mu.Unlock()
	p2 := NewNoisePool(2, 1, lengths, 1)
	defer p2.Close()
	waitReady(t, p2, 1)
	h2 := p2.Get(64)
	if h2 == nil {
		t.Fatal("second pool's warm ring did not yield a set")
	}
	p2.Get(64)
	mu.Lock()
	if len(warnings) != 1 {
		t.Fatalf("second pool fired %d warnings, want 1", len(warnings))
	}

	// A cold miss — before the ring has been full once — is counted but
	// says nothing about sizing: no warning. The pool is assembled without
	// its generator so "cold" is a state, not a race.
	warnings = warnings[:0]
	mu.Unlock()
	cold := &NoisePool{m: 1, lengths: lengths, sets: 2}
	if cold.Get(64) != nil || cold.Stats().Misses != 1 {
		t.Fatalf("cold Get must miss and be counted: %+v", cold.Stats())
	}
	mu.Lock()
	if len(warnings) != 0 {
		t.Fatalf("cold miss warned: %q", warnings)
	}
	mu.Unlock()
	cold.refills.Store(2) // the ring has been full once
	cold.Get(64)
	mu.Lock()
	if len(warnings) != 1 {
		t.Fatalf("first warm miss fired %d warnings, want 1", len(warnings))
	}
}
