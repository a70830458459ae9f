package serve

import (
	"context"
	"crypto/ecdh"
	"crypto/rand"
	"fmt"
	"sync"

	"darknight/internal/client"
	"darknight/internal/enclave"
)

// Frontend is the encrypted edge of the service: the system-model flow
// step 1 ("all the client data is first encrypted before being sent to the
// TEE"). Data holders attest the enclave, establish an AEAD session
// (internal/client) and ship sealed image batches; the frontend opens them
// inside the TEE boundary, fans the rows into the admission queue as
// independent requests, and seals the predicted classes back.
type Frontend struct {
	srv         *Server
	platform    *enclave.Platform
	measurement enclave.Measurement
	key         *ecdh.PrivateKey
}

// NewFrontend stands up the attestable edge for a server. The platform is
// the simulated hardware root of trust clients verify quotes against.
//
//lint:ignore testonly called by bench/benchkit; retarget in a benchmark PR (ROADMAP 1b/12)
func NewFrontend(srv *Server, measuredCode []byte) (*Frontend, error) {
	platform, err := enclave.NewPlatform()
	if err != nil {
		return nil, err
	}
	key, err := ecdh.X25519().GenerateKey(rand.Reader)
	if err != nil {
		return nil, err
	}
	return &Frontend{
		srv:         srv,
		platform:    platform,
		measurement: enclave.Measure(measuredCode),
		key:         key,
	}, nil
}

// Platform returns the root of trust clients verify against.
//
//lint:ignore testonly called by bench/benchkit; retarget in a benchmark PR (ROADMAP 1b/12)
func (f *Frontend) Platform() *enclave.Platform { return f.platform }

// Measurement returns the enclave identity clients must expect.
//
//lint:ignore testonly called by bench/benchkit; retarget in a benchmark PR (ROADMAP 1b/12)
func (f *Frontend) Measurement() enclave.Measurement { return f.measurement }

// PublicKey returns the enclave's handshake public key.
//
//lint:ignore testonly called by bench/benchkit; retarget in a benchmark PR (ROADMAP 1b/12)
func (f *Frontend) PublicKey() *ecdh.PublicKey { return f.key.PublicKey() }

// Quote answers an attestation challenge.
//
//lint:ignore testonly called by bench/benchkit; retarget in a benchmark PR (ROADMAP 1b/12)
func (f *Frontend) Quote(challenge [16]byte) enclave.Quote {
	return f.platform.Attest(f.measurement, challenge)
}

// Accept completes the enclave side of a client handshake, returning the
// per-client connection.
//
//lint:ignore testonly called by bench/benchkit; retarget in a benchmark PR (ROADMAP 1b/12)
func (f *Frontend) Accept(clientPub *ecdh.PublicKey) (*Conn, error) {
	sess, err := client.Accept(f.key, clientPub, f.measurement)
	if err != nil {
		return nil, err
	}
	return &Conn{f: f, sess: sess}, nil
}

// Conn is one attested client connection. The underlying AEAD session is
// sequential (request/response alternation), so Conn serializes frame
// handling; distinct clients get distinct Conns and proceed concurrently.
type Conn struct {
	f    *Frontend
	sess *client.Session
	mu   sync.Mutex
}

// HandleSealed opens one sealed image batch, serves every row through the
// admission queue concurrently (rows from one client frame ride in
// whatever virtual batches the batcher forms, alongside other clients'
// rows), and returns the sealed prediction vector. Labels in the request
// frame are ignored — inference clients send -1.
//
//lint:ignore testonly called by bench/benchkit; retarget in a benchmark PR (ROADMAP 1b/12)
func (c *Conn) HandleSealed(ctx context.Context, blob []byte) ([]byte, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	batch, err := c.sess.OpenBatch(blob)
	if err != nil {
		return nil, err
	}
	preds := make([]int, len(batch))
	errs := make([]error, len(batch))
	var wg sync.WaitGroup
	for i, ex := range batch {
		wg.Add(1)
		go func(i int, img []float64) {
			defer wg.Done()
			preds[i], errs[i] = c.f.srv.Infer(ctx, img)
		}(i, ex.Image)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("serve: row %d: %w", i, err)
		}
	}
	return c.sess.SealPredictions(preds)
}
