// Package enclave simulates the Intel SGX trusted execution environment
// DarKnight runs its TEE-side logic in (hardware substitution documented in
// DESIGN.md). It models the properties that shape the paper's design:
//
//   - a hard protected-memory budget (the ~128 MB EPC) that forces virtual
//     batching and ▽W eviction (§6),
//   - AES-GCM sealing for pages evicted to untrusted memory (Algorithm 2's
//     Encrypt/Evict),
//   - paging statistics the performance model converts into time.
//
// It is a *functional* enclave: data inside it is plain memory, but every
// boundary crossing is accounted for and sealed data really is encrypted,
// so tests can assert both behaviour and cost.
package enclave

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/rand"
	"errors"
	"fmt"
	"io"
	"sync"
)

// DefaultEPCBytes is the usable enclave page cache of the paper's SGX
// generation: 128 MB raw, ~93 MB usable after metadata.
const DefaultEPCBytes = 93 << 20

// Stats counts boundary-crossing work for the performance model.
type Stats struct {
	SealedBytes   int64 // bytes encrypted and evicted
	UnsealedBytes int64 // bytes reloaded and decrypted
	SealOps       int64
	UnsealOps     int64
	PeakUsage     int64 // high-water protected memory mark
}

// Enclave is a software SGX enclave with a memory budget and a sealing key.
type Enclave struct {
	mu       sync.Mutex
	capacity int64
	used     int64
	stats    Stats
	aead     cipher.AEAD

	// untrusted is the simulated untrusted DRAM the enclave evicts sealed
	// pages into, keyed by handle.
	untrusted map[uint64][]byte
	nextKey   uint64
}

// ErrOutOfMemory is returned when an allocation exceeds the EPC budget —
// the condition that caps virtual batch size (paper Fig 6b: "the execution
// time gets worse due to SGX memory overflow").
var ErrOutOfMemory = errors.New("enclave: EPC budget exceeded")

// ErrBadHandle is returned for unseal requests of unknown pages.
var ErrBadHandle = errors.New("enclave: unknown sealed page handle")

// New creates an enclave with the given protected-memory budget in bytes.
func New(capacity int64) (*Enclave, error) {
	if capacity <= 0 {
		return nil, fmt.Errorf("enclave: capacity must be positive, got %d", capacity)
	}
	key := make([]byte, 32)
	if _, err := io.ReadFull(rand.Reader, key); err != nil {
		return nil, fmt.Errorf("enclave: sealing key: %w", err)
	}
	block, err := aes.NewCipher(key)
	if err != nil {
		return nil, err
	}
	aead, err := cipher.NewGCM(block)
	if err != nil {
		return nil, err
	}
	return &Enclave{
		capacity:  capacity,
		aead:      aead,
		untrusted: make(map[uint64][]byte),
	}, nil
}

// Stats returns a snapshot of the boundary-crossing counters.
func (e *Enclave) Stats() Stats {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.stats
}

// Alloc reserves n protected bytes, failing if the budget would overflow.
// Callers model their working set with Alloc/Free pairs; the enclave
// enforces the same hard limit real SGX does.
func (e *Enclave) Alloc(n int64) error {
	if n < 0 {
		return fmt.Errorf("enclave: negative allocation %d", n)
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.used+n > e.capacity {
		return fmt.Errorf("%w: %d used + %d requested > %d capacity",
			ErrOutOfMemory, e.used, n, e.capacity)
	}
	e.used += n
	if e.used > e.stats.PeakUsage {
		e.stats.PeakUsage = e.used
	}
	return nil
}

// Free releases n protected bytes.
func (e *Enclave) Free(n int64) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.used -= n
	if e.used < 0 {
		panic("enclave: double free — used went negative")
	}
}

// Seal encrypts data with the enclave's AEAD key and stores the ciphertext
// in untrusted memory, returning an opaque handle (Algorithm 2 lines 9–10:
// Encrypt + Evict). The plaintext never appears in the untrusted store.
// The sealed page is one allocation: the nonce, then the ciphertext sealed
// straight in behind it.
func (e *Enclave) Seal(data []byte) (uint64, error) {
	ns := e.aead.NonceSize()
	blob := make([]byte, ns, ns+len(data)+e.aead.Overhead())
	if _, err := io.ReadFull(rand.Reader, blob); err != nil {
		return 0, err
	}
	blob = e.aead.Seal(blob, blob, data, nil)
	e.mu.Lock()
	e.nextKey++
	h := e.nextKey
	e.untrusted[h] = blob
	e.stats.SealedBytes += int64(len(data))
	e.stats.SealOps++
	e.mu.Unlock()
	return h, nil
}

// Unseal reloads and decrypts a sealed page (Algorithm 2 line 19). The
// handle is consumed, and the page is opened in place: the plaintext
// returned is the consumed page's own memory, so unsealing allocates
// nothing.
func (e *Enclave) Unseal(h uint64) ([]byte, error) {
	e.mu.Lock()
	blob, ok := e.untrusted[h]
	if ok {
		delete(e.untrusted, h)
	}
	e.mu.Unlock()
	if !ok {
		return nil, ErrBadHandle
	}
	ns := e.aead.NonceSize()
	if len(blob) < ns {
		return nil, fmt.Errorf("enclave: sealed blob truncated")
	}
	pt, err := e.aead.Open(blob[ns:ns], blob[:ns], blob[ns:], nil)
	if err != nil {
		return nil, fmt.Errorf("enclave: unseal authentication failed: %w", err)
	}
	e.mu.Lock()
	e.stats.UnsealedBytes += int64(len(pt))
	e.stats.UnsealOps++
	e.mu.Unlock()
	return pt, nil
}
