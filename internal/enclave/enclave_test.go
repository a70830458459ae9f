package enclave

import (
	"bytes"
	"errors"
	"testing"
)

func TestAllocBudget(t *testing.T) {
	e, err := New(1000)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Alloc(600); err != nil {
		t.Fatal(err)
	}
	if err := e.Alloc(500); !errors.Is(err, ErrOutOfMemory) {
		t.Fatalf("over-budget alloc err = %v", err)
	}
	if err := e.Alloc(400); err != nil {
		t.Fatal(err)
	}
	if e.used != 1000 {
		t.Fatalf("used = %d", e.used)
	}
	e.Free(400)
	if !e.Fits(300) {
		t.Fatal("should fit after free")
	}
	if e.Stats().PeakUsage != 1000 {
		t.Fatalf("peak = %d", e.Stats().PeakUsage)
	}
}

func TestFreePanicsOnUnderflow(t *testing.T) {
	e, _ := New(100)
	defer func() {
		if recover() == nil {
			t.Fatal("double free should panic")
		}
	}()
	e.Free(1)
}

func TestSealUnsealRoundTrip(t *testing.T) {
	e, _ := New(DefaultEPCBytes)
	data := []byte("gradient shard payload")
	h, err := e.Seal(data)
	if err != nil {
		t.Fatal(err)
	}
	got, err := e.Unseal(h)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("round trip mismatch")
	}
	// Handle is consumed.
	if _, err := e.Unseal(h); !errors.Is(err, ErrBadHandle) {
		t.Fatalf("reuse err = %v", err)
	}
	st := e.Stats()
	if st.SealOps != 1 || st.UnsealOps != 1 || st.SealedBytes != int64(len(data)) {
		t.Fatalf("stats = %+v", st)
	}
}

func TestSealedDataIsEncrypted(t *testing.T) {
	e, _ := New(DefaultEPCBytes)
	plain := bytes.Repeat([]byte("SECRET01"), 64)
	h, err := e.Seal(plain)
	if err != nil {
		t.Fatal(err)
	}
	// Inspect the untrusted store directly: ciphertext must not contain
	// the plaintext.
	blob := e.untrusted[h]
	if bytes.Contains(blob, []byte("SECRET01")) {
		t.Fatal("plaintext leaked into untrusted memory")
	}
}

func TestTamperDetection(t *testing.T) {
	e, _ := New(DefaultEPCBytes)
	h, err := e.Seal([]byte("weights update"))
	if err != nil {
		t.Fatal(err)
	}
	if err := e.TamperSealed(h); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Unseal(h); err == nil {
		t.Fatal("tampered page unsealed without error")
	}
}

// TestSealAllocations pins Algorithm 2's sealing cost: Unseal opens the
// page in place, and once Recycle has returned the opened pages, Seal
// takes its pages from them — a warm seal, unseal and recycle allocates
// nothing — and the reused pages still round-trip. The race detector
// bypasses sync.Pool, so under -race only the warm count goes unchecked.
func TestSealAllocations(t *testing.T) {
	e, _ := New(DefaultEPCBytes)
	page := make([]byte, 20<<10)
	for i := range page {
		page[i] = byte(i)
	}
	const runs = 100
	handles := make([]uint64, 0, runs+1)
	seal := func() {
		h, err := e.Seal(page)
		if err != nil {
			t.Fatal(err)
		}
		handles = append(handles, h)
	}
	var opened [][]byte
	unseal := func() {
		h := handles[len(handles)-1]
		handles = handles[:len(handles)-1]
		pt, err := e.Unseal(h)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(pt, page) {
			t.Fatal("a page did not round-trip")
		}
		opened = append(opened, pt)
	}
	if n := testing.AllocsPerRun(runs, seal); n > 1 {
		t.Fatalf("Seal made %v allocations, want <= 1", n)
	}
	opened = make([][]byte, 0, runs+1)
	if n := testing.AllocsPerRun(runs, unseal); n != 0 {
		t.Fatalf("Unseal made %v allocations, want 0", n)
	}
	for _, pt := range opened {
		e.Recycle(pt)
	}
	opened = opened[:0]
	if n := testing.AllocsPerRun(runs, func() { seal(); unseal(); e.Recycle(opened[0]); opened = opened[:0] }); n != 0 && !raceEnabled {
		t.Fatalf("a warm Seal, Unseal and Recycle made %v allocations, want 0", n)
	}
}

func TestNewRejectsBadCapacity(t *testing.T) {
	if _, err := New(0); err == nil {
		t.Fatal("zero capacity accepted")
	}
	if _, err := New(-5); err == nil {
		t.Fatal("negative capacity accepted")
	}
}

func TestAttestation(t *testing.T) {
	p, err := NewPlatform()
	if err != nil {
		t.Fatal(err)
	}
	m := Measure([]byte("darknight enclave v1"))
	var challenge [16]byte
	challenge[0] = 42
	q := p.Attest(m, challenge)
	if err := p.Verify(q, m, challenge); err != nil {
		t.Fatalf("honest quote rejected: %v", err)
	}
	// Wrong measurement.
	other := Measure([]byte("evil enclave"))
	if err := p.Verify(q, other, challenge); !errors.Is(err, ErrAttestation) {
		t.Fatalf("measurement mismatch err = %v", err)
	}
	// Replayed challenge.
	var challenge2 [16]byte
	if err := p.Verify(q, m, challenge2); !errors.Is(err, ErrAttestation) {
		t.Fatalf("challenge mismatch err = %v", err)
	}
	// Forged MAC.
	q2 := q
	q2.MAC[0] ^= 1
	if err := p.Verify(q2, m, challenge); !errors.Is(err, ErrAttestation) {
		t.Fatalf("forged MAC err = %v", err)
	}
}

func TestConcurrentAllocAndSeal(t *testing.T) {
	// The enclave is shared by the trainer's goroutine fan-out; its
	// accounting must be race-free (run with -race in CI).
	e, _ := New(1 << 20)
	done := make(chan error, 16)
	for g := 0; g < 16; g++ {
		go func(g int) {
			for i := 0; i < 50; i++ {
				if err := e.Alloc(128); err != nil {
					done <- err
					return
				}
				h, err := e.Seal([]byte("concurrent payload"))
				if err != nil {
					done <- err
					return
				}
				if _, err := e.Unseal(h); err != nil {
					done <- err
					return
				}
				e.Free(128)
			}
			done <- nil
		}(g)
	}
	for g := 0; g < 16; g++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	if e.used != 0 {
		t.Fatalf("leaked %d bytes", e.used)
	}
	st := e.Stats()
	if st.SealOps != 800 || st.UnsealOps != 800 {
		t.Fatalf("stats = %+v", st)
	}
}

// Fits reports whether an additional allocation of n bytes would succeed.
func (e *Enclave) Fits(n int64) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.used+n <= e.capacity
}

// TamperSealed corrupts a sealed page in untrusted memory — a test hook
// modelling an adversary with DRAM access. Unseal of a tampered page must
// fail authentication.
func (e *Enclave) TamperSealed(h uint64) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	blob, ok := e.untrusted[h]
	if !ok {
		return ErrBadHandle
	}
	blob[0] ^= 0x01 // the ciphertext's first byte
	return nil
}
