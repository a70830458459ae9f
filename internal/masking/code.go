// Package masking implements DarKnight's matrix-masking code (paper §4),
// the primary contribution of the MICRO'21 paper. A virtual batch of K
// private inputs is linearly combined with M uniform noise vectors over
// F_p to produce S = K+M coded inputs (plus E redundant ones for integrity),
// each of which is safe to hand to an untrusted GPU:
//
//	X̄ = [x₁ … x_K, r₁ … r_M] · A,   A ∈ F_p^{S×(S+E)}
//
// Because the heavy DNN operators are bilinear, results computed on coded
// inputs decode exactly:
//
//   - forward  (Eq 1–2):  Ȳ = f(X̄) = f(X_full)·A  ⇒  Y = Ȳ·A⁻¹
//   - backward (Eq 4–6):  Σⱼ γⱼ·g(Σᵢ βⱼᵢ δᵢ, x̄ⱼ) = Σᵢ g(δᵢ, xᵢ)
//     whenever A·Γ·B = [I_K; 0] (the Eq 5/13 condition, written without
//     transposes for our column-code layout)
//
// The package is deliberately agnostic about what the linear map f and the
// bilinear map g are — matmul, convolution, anything bilinear works. The
// scheduler (internal/sched) wires these to real DNN layers.
package masking

import (
	"errors"
	"fmt"
	"math/rand"

	"darknight/internal/field"
)

// Params configures a code instance.
type Params struct {
	// K is the virtual batch size: the number of private inputs combined
	// into each coded input. The paper uses 2–6 depending on SGX memory.
	K int
	// M is the collusion tolerance: the number of independent uniform
	// noise vectors mixed in. Privacy holds against any coalition of up
	// to M GPUs (§4.5). M must be >= 1; M = 1 is the paper's base scheme.
	M int
	// Redundancy E adds E extra coded inputs for integrity verification
	// (§4.4). E = 0 disables verification; E = 1 is the paper's scheme
	// ("one additional linear combination of inputs").
	Redundancy int
}

// Validate checks the parameter ranges.
func (p Params) Validate() error {
	if p.K < 1 {
		return fmt.Errorf("masking: K = %d, need at least one input", p.K)
	}
	if p.M < 1 {
		return fmt.Errorf("masking: M = %d, privacy requires at least one noise vector", p.M)
	}
	if p.Redundancy < 0 {
		return fmt.Errorf("masking: negative redundancy %d", p.Redundancy)
	}
	// The backward pass decodes through two S-column windows: the primary
	// [0, S) and the secondary [E, S+E). With E > S the equations in
	// [S, E) fall in neither window and have no backward row at all (the
	// B merge in New would index bsec negatively). The paper's scheme is
	// E = 1; anything up to S works, beyond it cannot.
	if p.Redundancy > p.K+p.M {
		return fmt.Errorf("masking: redundancy %d exceeds S = K+M = %d; the dual-window backward decode supports at most E = S",
			p.Redundancy, p.K+p.M)
	}
	return nil
}

// GPUs returns the number of workers the code occupies: S + E = K + M + E.
// This is the paper's K' >= K + M + 1 sizing rule when E = 1.
func (p Params) GPUs() int { return p.K + p.M + p.Redundancy }

// Code is one instantiated masking code: the secret coefficients for a
// single virtual batch. The TEE must keep A, Γ (and the cached inverses)
// inside the enclave; B is safe to publish to GPUs (§4.2: "we do not need
// to protect matrix B in the enclave").
type Code struct {
	K, M, E int
	S       int // K + M

	// A is the S×(S+E) encoding matrix. Column j holds the mixing
	// coefficients of coded input j. Every S-column subset we decode
	// from is invertible by construction.
	A *field.Mat
	// primary is the decode window over A's first S columns — the default
	// decode path — with the parity rows of the E redundant columns.
	primary *window
	// windows caches the straggler windows decoded from so far: a window's
	// inverse and parity rows are computed once per code, not per layer.
	windows []*window

	// Gamma holds the S+E secret decode scalars γ_j for the backward
	// pass; entries beyond the primary subset belong to the secondary
	// decoding.
	Gamma field.Vec
	// B is the (S+E)×K public scaling matrix handed to GPUs: GPU j
	// combines the gradients as Σᵢ B[j,i]·δᵢ before its bilinear op.
	B *field.Mat
	// gammaSec / bSec are the γ and B for the secondary (redundant)
	// decoding, defined over the last S coded inputs.
	gammaSec field.Vec
	bSec     *field.Mat

	// srcs and col are scratch for the fused coding kernels: the source
	// gather and the coefficient-column gather of one matrix-product row.
	// They are reused across Encode/Decode calls — a Code belongs to one
	// TEE execution context and is not safe for concurrent use.
	srcs []field.Vec
	col  field.Vec
	// col2 is the second coefficient-column gather of a row pair: the fused
	// kernels emit two output rows per source pass (field.Combine2).
	col2 field.Vec
	// cols is the decode's present-column scratch.
	cols []int
	// noiseScratch holds Encode's M internally drawn noise rows. The rows
	// never escape (only the coded combinations do), so like srcs/col they
	// are drawn into reusable scratch rather than allocated per call.
	noiseScratch []field.Vec
}

// gatherScratch returns the (lazily grown) reusable scratch slices sized
// for k coefficient/source entries.
func (c *Code) gatherScratch(k int) ([]field.Vec, field.Vec) {
	if cap(c.srcs) < k {
		c.srcs = make([]field.Vec, k)
		c.col = make(field.Vec, k)
		c.col2 = make(field.Vec, k)
	}
	return c.srcs[:k], c.col[:k]
}

// ErrWrongCount is returned when a decode is offered the wrong number of
// GPU results for the code.
var ErrWrongCount = errors.New("masking: wrong number of coded results")

// ErrShapeMismatch is returned when inputs of differing lengths are encoded
// together; a virtual batch must be shape-uniform.
var ErrShapeMismatch = errors.New("masking: inputs in a virtual batch must have equal length")

// New draws a fresh code for one virtual batch. DarKnight regenerates the
// coefficients for every virtual batch (§4.1); the cost is O(S³) on S ≈ 3–7
// scalar matrices, negligible next to the DNN linear algebra.
func New(p Params, rng *rand.Rand) (*Code, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	s := p.K + p.M
	c := &Code{K: p.K, M: p.M, E: p.Redundancy, S: s}

	// Draw the primary S×S block invertible, then append E extra columns
	// such that the trailing S-column window — the backward pass's
	// secondary decoding — is invertible too.
	var pinv, sinv *field.Mat
	for {
		primary, inv := field.RandInvertible(rng, s)
		ext := field.RandMat(rng, s, p.Redundancy)
		full := field.NewMat(s, s+p.Redundancy)
		for r := 0; r < s; r++ {
			copy(full.Row(r)[:s], primary.Row(r))
			copy(full.Row(r)[s:], ext.Row(r))
		}
		c.A = full
		pinv = inv
		if p.Redundancy == 0 {
			break
		}
		sec := full.SubMatrix(0, s, p.Redundancy, s+p.Redundancy)
		var err error
		if sinv, err = sec.Inverse(); err != nil {
			continue // astronomically rare; redraw
		}
		break
	}
	// The §5 collusion argument needs every M-column subset of the noise
	// block A2 to be full rank. A uniform draw satisfies this with
	// probability ≈ 1 - O(S²/p), but we verify constructively and redraw
	// on the (astronomically rare) failure so the guarantee is absolute.
	if c.anyLeakOfSize(p.M) {
		return New(p, rng)
	}
	c.primary = c.newWindow(seq(s), pinv)

	// Backward coefficients for the primary subset: A_p·Γ·B = [I_K; 0].
	gamma, b := backwardCoeffs(c.A.SubMatrix(0, s, 0, s), pinv, p.K, rng)
	c.Gamma = gamma
	c.B = field.NewMat(s+p.Redundancy, p.K)
	for j := 0; j < s; j++ {
		copy(c.B.Row(j), b.Row(j))
	}
	if p.Redundancy > 0 {
		gsec, bsec := backwardCoeffs(c.A.SubMatrix(0, s, p.Redundancy, s+p.Redundancy), sinv, p.K, rng)
		c.gammaSec = gsec
		c.bSec = bsec
		// Equations [E, S+E) belong to both decodings; the published B
		// must agree with the primary values there, so the secondary
		// pass recomputes its own B rows only for the tail equations it
		// exclusively owns. To keep both decodings valid with a single
		// published B we instead keep bSec separate and expose it via
		// SecondaryB (the TEE hands each GPU the β row for the decoding
		// it serves).
		for j := s; j < s+p.Redundancy; j++ {
			copy(c.B.Row(j), bsec.Row(j-p.Redundancy))
		}
	}
	return c, nil
}

// anyLeakOfSize reports whether any coalition of size coded inputs leaks.
// It walks the coalitions in lexicographic order on one set of scratch —
// the coalition, its stacked view and its noise block, refilled from A for
// each — so the check allocates per call, not per coalition.
func (c *Code) anyLeakOfSize(size int) bool {
	chk := coalitionCheck{
		c:       c,
		cur:     make([]int, 0, size),
		stacked: field.NewMat(c.S, size),
		noise:   field.NewMat(c.M, size),
	}
	return chk.anyLeak(size, 0)
}

// coalitionCheck is anyLeakOfSize's scratch.
type coalitionCheck struct {
	c              *Code
	cur            []int
	stacked, noise *field.Mat
}

// anyLeak extends the coalition in cur with inputs from start on until it
// has size members, and reports whether any coalition so formed leaks.
func (k *coalitionCheck) anyLeak(size, start int) bool {
	if len(k.cur) == size {
		// A's rows are the input rows then the noise rows, so the stacked
		// view [A1_I; A2_I] is A's columns I, and A2_I its last M rows.
		a := k.c.A
		for col, g := range k.cur {
			for r := 0; r < a.Rows; r++ {
				k.stacked.Set(r, col, a.At(r, g))
			}
			for r := 0; r < k.c.M; r++ {
				k.noise.Set(r, col, a.At(k.c.K+r, g))
			}
		}
		return leaks(k.stacked, k.noise)
	}
	for i := start; i < k.c.NumCoded(); i++ {
		k.cur = append(k.cur, i)
		leak := k.anyLeak(size, i+1)
		k.cur = k.cur[:len(k.cur)-1]
		if leak {
			return true
		}
	}
	return false
}

// backwardCoeffs draws a random invertible diagonal Γ and computes
// B = Γ⁻¹·A⁻¹·P with P = [I_K; 0] ∈ F^{S×K}, so that A·Γ·B = P exactly
// (the Eq 5/13 condition).
func backwardCoeffs(a, ainv *field.Mat, k int, rng *rand.Rand) (field.Vec, *field.Mat) {
	s := a.Rows
	gamma := make(field.Vec, s)
	ginv := make(field.Vec, s)
	for i := range gamma {
		g := field.RandNonZero(rng)
		gamma[i] = g
		ginv[i] = field.MustInv(g)
	}
	// P = [I_K; 0] — take the first K columns of A⁻¹, scale rows by Γ⁻¹.
	b := field.NewMat(s, k)
	for r := 0; r < s; r++ {
		for c := 0; c < k; c++ {
			b.Set(r, c, field.Mul(ginv[r], ainv.At(r, c)))
		}
	}
	return gamma, b
}

// NumCoded returns S+E, the number of coded inputs (and thus GPUs) used.
func (c *Code) NumCoded() int { return c.S + c.E }

// SecondaryB returns the β matrix of the redundant backward decoding (rows
// indexed over coded inputs [E, S+E)), or nil when redundancy is disabled.
func (c *Code) SecondaryB() *field.Mat {
	if c.E == 0 {
		return nil
	}
	return c.bSec.Clone()
}

// checkBatch validates a virtual batch of K same-length inputs and returns
// their common length.
func (c *Code) checkBatch(inputs []field.Vec) (int, error) {
	if len(inputs) != c.K {
		return 0, fmt.Errorf("%w: got %d inputs, code has K=%d", ErrWrongCount, len(inputs), c.K)
	}
	n := len(inputs[0])
	for _, in := range inputs {
		if len(in) != n {
			return 0, ErrShapeMismatch
		}
	}
	return n, nil
}

// Encode produces the S+E coded vectors for a virtual batch of K inputs,
// drawing the M noise vectors internally from rng (Eq 1 / Eq 10).
// All inputs must share a length. Steady-state callers that want the
// allocation-free path draw the noise themselves and use EncodeWith.
func (c *Code) Encode(inputs []field.Vec, rng *rand.Rand) ([]field.Vec, error) {
	n, err := c.checkBatch(inputs)
	if err != nil {
		return nil, err
	}
	if cap(c.noiseScratch) < c.M {
		c.noiseScratch = make([]field.Vec, c.M)
	}
	noise := c.noiseScratch[:c.M]
	for m := range noise {
		if cap(noise[m]) < n {
			noise[m] = field.NewVec(n)
		}
		noise[m] = field.RandVecInto(rng, noise[m][:n])
	}
	coded := make([]field.Vec, c.NumCoded())
	for j := range coded {
		coded[j] = field.NewVec(n)
	}
	if err := c.EncodeWith(coded, inputs, noise); err != nil {
		return nil, err
	}
	return coded, nil
}

// EncodeWith combines the K inputs and M caller-drawn uniform noise rows
// into the S+E caller-owned destination vectors (Eq 1 / Eq 10), each of
// which is overwritten. Splitting the noise draw from the combination keeps
// the combination a pure blocked matrix-matrix product over F_p (parallel,
// lazy-reduced, allocation-free) and keeps all RNG use on the single
// caller goroutine. noise rows must be uniform draws (field.RandVecInto) —
// the privacy proof (Lemma 1) depends on it.
func (c *Code) EncodeWith(dst, inputs, noise []field.Vec) error {
	n, err := c.checkBatch(inputs)
	if err != nil {
		return err
	}
	if len(noise) != c.M {
		return fmt.Errorf("%w: got %d noise rows, code has M=%d", ErrWrongCount, len(noise), c.M)
	}
	for _, r := range noise {
		if len(r) != n {
			return ErrShapeMismatch
		}
	}
	if len(dst) != c.NumCoded() {
		return fmt.Errorf("%w: got %d destinations, code emits %d", ErrWrongCount, len(dst), c.NumCoded())
	}
	for _, d := range dst {
		if len(d) != n {
			return ErrShapeMismatch
		}
	}
	srcs, col := c.gatherScratch(c.S)
	col2 := c.col2[:c.S]
	copy(srcs, inputs)
	copy(srcs[c.K:], noise)
	// Coded column j is one row of the product [X; R]ᵀ·A: gather A's
	// column and fuse all S scale-adds with lazy reduction. Rows go out in
	// pairs — Combine2 streams the shared sources once for both — with a
	// single-row tail when S+E is odd.
	j := 0
	for ; j+1 < len(dst); j += 2 {
		for m := 0; m < c.S; m++ {
			col[m] = c.A.At(m, j)
			col2[m] = c.A.At(m, j+1)
		}
		field.Combine2(dst[j], dst[j+1], col, col2, srcs)
	}
	if j < len(dst) {
		for m := 0; m < c.S; m++ {
			col[m] = c.A.At(m, j)
		}
		field.Combine(dst[j], col, srcs)
	}
	return nil
}

// DecodeForwardInto inverts the linear GPU results back to the
// per-input results (Eq 2): given ȳ_j = f(x̄_j) for the *first S* coded
// inputs, it writes f(x₁) … f(x_K) into K caller-owned vectors, each of
// which is overwritten, discarding the noise images f(r) ("that value is
// just dropped"). results may carry all S+E entries; extras are ignored.
// It is the unverified primary-window decode; DecodeForwardSubsetInto is
// the verified one.
//
//lint:ignore testonly called by bench/benchkit; retarget in a benchmark PR (ROADMAP 1b/12)
func (c *Code) DecodeForwardInto(dst []field.Vec, results []field.Vec) error {
	if len(results) < c.S {
		return fmt.Errorf("%w: got %d results, need %d", ErrWrongCount, len(results), c.S)
	}
	window := results[:c.S]
	if err := c.checkDecode(dst, window, nil, len(window[0])); err != nil {
		return err
	}
	c.decodeWindowInto(dst, window, c.primary.inv)
	return nil
}

// checkDecode validates K decode destinations and the results they decode
// from: every destination and every present result (all of them when
// present is nil) n long.
func (c *Code) checkDecode(dst, results []field.Vec, present []bool, n int) error {
	if len(dst) != c.K {
		return fmt.Errorf("%w: got %d destinations, decode yields K=%d", ErrWrongCount, len(dst), c.K)
	}
	for j, v := range results {
		if (present == nil || present[j]) && len(v) != n {
			return ErrShapeMismatch
		}
	}
	for _, d := range dst {
		if len(d) != n {
			return ErrShapeMismatch
		}
	}
	return nil
}

// decodeWindowInto decodes the K inputs into dst from the S results of a
// decode window (window[j] is the result of the window's j-th column) and
// the inverse of A restricted to those columns.
func (c *Code) decodeWindowInto(dst, window []field.Vec, inv *field.Mat) {
	_, col := c.gatherScratch(c.S)
	col2 := c.col2[:c.S]
	// y_i = Σ_j inv[j, i] · ȳ_{w_j}: gather inv's column i, one fused
	// lazy-reduced product row per decoded input, decoding input pairs in a
	// single pass over the shared result window (Combine2).
	i := 0
	for ; i+1 < len(dst); i += 2 {
		for j := 0; j < c.S; j++ {
			col[j] = inv.At(j, i)
			col2[j] = inv.At(j, i+1)
		}
		field.Combine2(dst[i], dst[i+1], col, col2, window)
	}
	if i < len(dst) {
		for j := 0; j < c.S; j++ {
			col[j] = inv.At(j, i)
		}
		field.Combine(dst[i], col, window)
	}
}

// DecodeBackwardInto folds the S GPU gradient equations into the exact
// batch gradient Σᵢ g(δᵢ, xᵢ) (Eq 6), written into a caller-owned vector,
// which is overwritten. eqs[j] must be the bilinear result the j-th GPU
// computed on (Σᵢ B[j,i]·δᵢ, x̄ⱼ) for the primary coded inputs. The 1/K
// batch averaging happens in float space after unquantization. It is the
// unverified decode; DecodeBackwardSubsetInto is the verified one.
//
//lint:ignore testonly called by bench/benchkit; retarget in a benchmark PR (ROADMAP 1b/12)
func (c *Code) DecodeBackwardInto(dst field.Vec, eqs []field.Vec) error {
	if len(eqs) < c.S {
		return fmt.Errorf("%w: got %d equations, need %d", ErrWrongCount, len(eqs), c.S)
	}
	for _, e := range eqs[:c.S] {
		if len(e) != len(dst) {
			return ErrShapeMismatch
		}
	}
	field.Combine(dst, c.Gamma[:c.S], eqs[:c.S])
	return nil
}
