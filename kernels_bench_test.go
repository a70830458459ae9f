package darknight

// BenchmarkKernels measures the PR2 kernel overhaul against the retained
// seed kernels (the *Ref implementations): blocked/parallel float matmul
// and conv, and the lazy-reduction zero-allocation coding path. The
// headline pair is codedforward/{ref,fused} — the TEE-side
// encode → dispatch → decode loop of one bilinear layer — whose ratio is
// recorded in BENCH_PR2.json and enforced (with slack for timer noise) by
// TestCodedForwardSpeedup.

import (
	"math/rand"
	"testing"

	"darknight/internal/field"
	"darknight/internal/masking"
	"darknight/internal/nn"
	"darknight/internal/tensor"
)

// codedBench is one coded-forward fixture: a conv layer, a drawn code and
// the K quantized activations, plus preallocated buffers for the fused
// (allocation-free) path.
type codedBench struct {
	layer *nn.Conv2D
	code  *masking.Code
	wq    field.Vec
	ins   []field.Vec
	rng   *rand.Rand

	noise   []field.Vec
	coded   []field.Vec
	decoded []field.Vec
}

func newCodedBench(b testing.TB) *codedBench {
	rng := rand.New(rand.NewSource(3))
	p := tensor.ConvParams{InC: 8, OutC: 16, KH: 3, KW: 3, Stride: 1, Pad: 1, InH: 16, InW: 16, Groups: 1}
	layer := nn.NewConv2D("bench", p, rng)
	code, err := masking.New(masking.Params{K: 4, M: 1, Redundancy: 1}, rng)
	if err != nil {
		b.Fatal(err)
	}
	cb := &codedBench{layer: layer, code: code, rng: rng}
	cb.wq = field.RandVec(rng, layer.WLen())
	n := layer.InLen()
	cb.ins = make([]field.Vec, code.K)
	for i := range cb.ins {
		cb.ins[i] = field.RandVec(rng, n)
	}
	cb.noise = make([]field.Vec, code.M)
	for i := range cb.noise {
		cb.noise[i] = field.NewVec(n)
	}
	cb.coded = make([]field.Vec, code.NumCoded())
	for i := range cb.coded {
		cb.coded[i] = field.NewVec(n)
	}
	cb.decoded = make([]field.Vec, code.K)
	for i := range cb.decoded {
		cb.decoded[i] = field.NewVec(layer.OutLen())
	}
	return cb
}

// forwardRef runs the seed coded forward path: per-term AXPY encode, the
// MulAdd-per-element GPU kernel, per-term AXPY decode — all freshly
// allocating, exactly as before PR2.
func (cb *codedBench) forwardRef(b testing.TB) []field.Vec {
	coded, err := cb.code.EncodeRef(cb.ins, cb.rng)
	if err != nil {
		b.Fatal(err)
	}
	results := make([]field.Vec, len(coded))
	for j := range coded {
		results[j] = cb.layer.LinearForwardFieldRef(cb.wq, coded[j])
	}
	decoded, err := cb.code.DecodeForwardRef(results)
	if err != nil {
		b.Fatal(err)
	}
	return decoded
}

// forwardFused runs the PR2 path: noise drawn into reused buffers, fused
// lazy-reduction encode into reused buffers, the lazy-reduction pooled GPU
// kernel, fused decode into reused buffers.
func (cb *codedBench) forwardFused(b testing.TB) []field.Vec {
	for i := range cb.noise {
		field.RandVecInto(cb.rng, cb.noise[i])
	}
	if err := cb.code.EncodeWith(cb.coded, cb.ins, cb.noise); err != nil {
		b.Fatal(err)
	}
	results := make([]field.Vec, len(cb.coded))
	for j := range cb.coded {
		results[j] = cb.layer.LinearForwardField(cb.wq, cb.coded[j])
	}
	if err := cb.code.DecodeForwardInto(cb.decoded, results); err != nil {
		b.Fatal(err)
	}
	return cb.decoded
}

func BenchmarkKernels(b *testing.B) {
	// --- matmul: blocked/parallel vs seed i-k-j ---
	const mm = 128
	rng := rand.New(rand.NewSource(1))
	ma := tensor.New(mm, mm)
	mb := tensor.New(mm, mm)
	ma.RandNormal(rng, 1)
	mb.RandNormal(rng, 1)
	b.Run("matmul/ref", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			tensor.MatMulRef(ma, mb)
		}
	})
	b.Run("matmul/blocked", func(b *testing.B) {
		dst := tensor.New(mm, mm)
		for i := 0; i < b.N; i++ {
			tensor.MatMulInto(dst, ma, mb)
		}
	})

	// --- conv: pooled patch buffers + Into matmuls vs seed (fresh im2col +
	// naive matmul + result copy) ---
	p := tensor.ConvParams{InC: 8, OutC: 16, KH: 3, KW: 3, Stride: 1, Pad: 1, InH: 16, InW: 16, Groups: 1}
	img := make([]float64, p.InC*p.InH*p.InW)
	for i := range img {
		img[i] = rng.NormFloat64()
	}
	w := tensor.New(p.OutC, p.InC, p.KH, p.KW)
	w.RandNormal(rng, 0.1)
	bias := make([]float64, p.OutC)
	rows := p.InC * p.KH * p.KW
	npix := p.OutH() * p.OutW()
	b.Run("conv/ref", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			// The seed Conv2D: allocate the patch matrix, naive matmul,
			// copy the result block.
			cols := tensor.Im2Col(img, p)
			out := tensor.New(p.OutC, p.OutH(), p.OutW())
			wg := tensor.FromSlice(w.Data, p.OutC, rows)
			cg := tensor.FromSlice(cols.Data, rows, npix)
			res := tensor.MatMulRef(wg, cg)
			copy(out.Data, res.Data)
		}
	})
	b.Run("conv/blocked", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			tensor.Conv2D(img, w, bias, p)
		}
	})

	// --- encode / decode: fused lazy-reduction vs per-term AXPY ---
	cb := newCodedBench(b)
	b.Run("encode/ref", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := cb.code.EncodeRef(cb.ins, cb.rng); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("encode/fused", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for m := range cb.noise {
				field.RandVecInto(cb.rng, cb.noise[m])
			}
			if err := cb.code.EncodeWith(cb.coded, cb.ins, cb.noise); err != nil {
				b.Fatal(err)
			}
		}
	})
	results := make([]field.Vec, len(cb.coded))
	for j := range cb.coded {
		results[j] = field.RandVec(cb.rng, cb.layer.InLen())
	}
	decodedDst := make([]field.Vec, cb.code.K)
	for i := range decodedDst {
		decodedDst[i] = field.NewVec(cb.layer.InLen())
	}
	b.Run("decode/ref", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := cb.code.DecodeForwardRef(results); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("decode/fused", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if err := cb.code.DecodeForwardInto(decodedDst, results); err != nil {
				b.Fatal(err)
			}
		}
	})

	// --- the headline: TEE-side coded forward path of one conv layer ---
	b.Run("codedforward/ref", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			cb.forwardRef(b)
		}
	})
	b.Run("codedforward/fused", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			cb.forwardFused(b)
		}
	})
}
