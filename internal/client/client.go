// Package client implements the data-holder side of DarKnight's system
// model (§3, Fig 1, flow step 1): the client verifies the enclave via
// remote attestation, establishes an authenticated-encryption session, and
// ships training/inference batches to the TEE encrypted end-to-end —
// "all the client data is first encrypted before being sent to the TEE".
//
// The cryptography is real (X25519 key agreement + HKDF-less HMAC KDF +
// AES-GCM, all stdlib); the attestation root of trust is the simulated
// platform from internal/enclave.
package client

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/ecdh"
	"crypto/hmac"
	"crypto/rand"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"

	"darknight/internal/dataset"
	"darknight/internal/enclave"
)

// ErrSession is returned for malformed or tampered session traffic.
var ErrSession = errors.New("client: session error")

// Session is one authenticated-encryption channel between a data holder
// and an attested enclave. Both endpoints hold a Session (with the same
// key) after Establish/Accept. The two directions use independent frame
// counters and a direction byte inside the nonce, so client→TEE and
// TEE→client traffic can never collide on a (key, nonce) pair no matter
// how the endpoints interleave.
type Session struct {
	aead cipher.AEAD
	// client marks which end of the channel this Session is (set by
	// Establish, cleared by Accept); it selects the nonce direction byte.
	client bool
	// txSeq/rxSeq count sent and received frames independently.
	txSeq, rxSeq uint64
}

// Nonce direction bytes: byte 8 of the 12-byte GCM nonce.
const (
	dirClientToTEE = 1
	dirTEEToClient = 2
)

func (s *Session) sendDir() byte {
	if s.client {
		return dirClientToTEE
	}
	return dirTEEToClient
}

func (s *Session) recvDir() byte {
	if s.client {
		return dirTEEToClient
	}
	return dirClientToTEE
}

// Establish runs the client-side handshake:
//
//  1. challenge the platform and verify the enclave quote against the
//     expected measurement,
//  2. X25519 key agreement with the enclave's ephemeral public key,
//  3. derive the session key with HMAC-SHA256 over the transcript.
//
// It returns the client session; the enclave side derives the identical
// key from the peer public key (see Accept).
//
//lint:ignore testonly called by bench/benchkit; retarget in a benchmark PR (ROADMAP 1b/12)
func Establish(platform *enclave.Platform, want enclave.Measurement, enclavePub *ecdh.PublicKey, quoteFor func(challenge [16]byte) enclave.Quote) (*Session, *ecdh.PublicKey, error) {
	var challenge [16]byte
	if _, err := io.ReadFull(rand.Reader, challenge[:]); err != nil {
		return nil, nil, err
	}
	quote := quoteFor(challenge)
	if err := platform.Verify(quote, want, challenge); err != nil {
		return nil, nil, fmt.Errorf("client: attestation rejected: %w", err)
	}
	priv, err := ecdh.X25519().GenerateKey(rand.Reader)
	if err != nil {
		return nil, nil, err
	}
	shared, err := priv.ECDH(enclavePub)
	if err != nil {
		return nil, nil, err
	}
	s, err := newSession(shared, want, true)
	if err != nil {
		return nil, nil, err
	}
	return s, priv.PublicKey(), nil
}

// Accept runs the enclave-side key derivation given the client's public
// key (the enclave's long-lived handshake key is priv).
func Accept(priv *ecdh.PrivateKey, clientPub *ecdh.PublicKey, measurement enclave.Measurement) (*Session, error) {
	shared, err := priv.ECDH(clientPub)
	if err != nil {
		return nil, err
	}
	return newSession(shared, measurement, false)
}

func newSession(shared []byte, m enclave.Measurement, client bool) (*Session, error) {
	kdf := hmac.New(sha256.New, shared)
	kdf.Write([]byte("darknight session v1"))
	kdf.Write(m[:])
	key := kdf.Sum(nil)
	block, err := aes.NewCipher(key)
	if err != nil {
		return nil, err
	}
	aead, err := cipher.NewGCM(block)
	if err != nil {
		return nil, err
	}
	return &Session{aead: aead, client: client}, nil
}

// seal encrypts one payload frame. The sender's fresh sequence number and
// direction byte are bound into the nonce and the frame header is
// authenticated, so replay, reorder and cross-direction reflection are
// all detected by open.
func (s *Session) seal(plain []byte) []byte {
	s.txSeq++
	nonce := make([]byte, s.aead.NonceSize())
	binary.LittleEndian.PutUint64(nonce, s.txSeq)
	nonce[8] = s.sendDir()
	out := make([]byte, 8, 8+len(plain)+s.aead.Overhead())
	binary.LittleEndian.PutUint64(out, s.txSeq)
	return s.aead.Seal(out, nonce, plain, out[:8])
}

// open authenticates and decrypts one frame from the peer direction.
// Sequence numbers must be strictly increasing per direction.
func (s *Session) open(blob []byte) ([]byte, error) {
	if len(blob) < 8 {
		return nil, fmt.Errorf("%w: truncated frame", ErrSession)
	}
	seq := binary.LittleEndian.Uint64(blob[:8])
	if seq <= s.rxSeq {
		return nil, fmt.Errorf("%w: replayed or reordered frame %d (last %d)", ErrSession, seq, s.rxSeq)
	}
	nonce := make([]byte, s.aead.NonceSize())
	binary.LittleEndian.PutUint64(nonce, seq)
	nonce[8] = s.recvDir()
	plain, err := s.aead.Open(nil, nonce, blob[8:], blob[:8])
	if err != nil {
		return nil, fmt.Errorf("%w: authentication failed: %v", ErrSession, err)
	}
	s.rxSeq = seq
	return plain, nil
}

// SealBatch encrypts a labelled batch for transmission to the TEE.
//
//lint:ignore testonly called by bench/benchkit; retarget in a benchmark PR (ROADMAP 1b/12)
func (s *Session) SealBatch(batch []dataset.Example) ([]byte, error) {
	if len(batch) == 0 {
		return nil, fmt.Errorf("%w: empty batch", ErrSession)
	}
	n := len(batch[0].Image)
	for _, ex := range batch {
		if len(ex.Image) != n {
			return nil, fmt.Errorf("%w: ragged batch", ErrSession)
		}
	}
	plain := make([]byte, 8+len(batch)*(4+8*n))
	binary.LittleEndian.PutUint64(plain, uint64(n))
	off := 8
	for _, ex := range batch {
		binary.LittleEndian.PutUint32(plain[off:], uint32(int32(ex.Label)))
		off += 4
		for _, v := range ex.Image {
			binary.LittleEndian.PutUint64(plain[off:], math.Float64bits(v))
			off += 8
		}
	}
	return s.seal(plain), nil
}

// OpenBatch authenticates and decrypts a sealed batch on the enclave side.
func (s *Session) OpenBatch(blob []byte) ([]dataset.Example, error) {
	plain, err := s.open(blob)
	if err != nil {
		return nil, err
	}
	if len(plain) < 8 {
		return nil, fmt.Errorf("%w: truncated payload", ErrSession)
	}
	n := int(binary.LittleEndian.Uint64(plain))
	rec := 4 + 8*n
	if n <= 0 || (len(plain)-8)%rec != 0 {
		return nil, fmt.Errorf("%w: malformed payload", ErrSession)
	}
	count := (len(plain) - 8) / rec
	out := make([]dataset.Example, count)
	off := 8
	for i := range out {
		out[i].Label = int(int32(binary.LittleEndian.Uint32(plain[off:])))
		off += 4
		img := make([]float64, n)
		for j := range img {
			img[j] = math.Float64frombits(binary.LittleEndian.Uint64(plain[off:]))
			off += 8
		}
		out[i].Image = img
	}
	return out, nil
}

// SealPredictions encrypts a per-image prediction vector — the inference
// response frame the TEE returns for a sealed request batch.
func (s *Session) SealPredictions(preds []int) ([]byte, error) {
	if len(preds) == 0 {
		return nil, fmt.Errorf("%w: empty prediction vector", ErrSession)
	}
	plain := make([]byte, 8+4*len(preds))
	binary.LittleEndian.PutUint64(plain, uint64(len(preds)))
	for i, p := range preds {
		binary.LittleEndian.PutUint32(plain[8+4*i:], uint32(int32(p)))
	}
	return s.seal(plain), nil
}

// OpenPredictions authenticates and decrypts a prediction vector on the
// client side.
//
//lint:ignore testonly called by bench/benchkit; retarget in a benchmark PR (ROADMAP 1b/12)
func (s *Session) OpenPredictions(blob []byte) ([]int, error) {
	plain, err := s.open(blob)
	if err != nil {
		return nil, err
	}
	if len(plain) < 8 {
		return nil, fmt.Errorf("%w: truncated payload", ErrSession)
	}
	n := int(binary.LittleEndian.Uint64(plain))
	if n <= 0 || len(plain) != 8+4*n {
		return nil, fmt.Errorf("%w: malformed prediction payload", ErrSession)
	}
	out := make([]int, n)
	for i := range out {
		out[i] = int(int32(binary.LittleEndian.Uint32(plain[8+4*i:])))
	}
	return out, nil
}
