package benchkit

import (
	"context"
	"fmt"
	"io"
	"log"
	"math/rand"
	"runtime"
	"time"

	"darknight"
	"darknight/internal/client"
	"darknight/internal/dataset"
	"darknight/internal/enclave"
	"darknight/internal/field"
	"darknight/internal/fleet"
	"darknight/internal/gpu"
	"darknight/internal/masking"
	"darknight/internal/nn"
	"darknight/internal/obs"
	"darknight/internal/quant"
	"darknight/internal/sched"
	"darknight/internal/serve"
	"darknight/internal/slalom"
	"darknight/internal/tensor"
)

// prober times direct calls into one layer's public functions. Every timed
// batch of calls is one probe.<metric> span.
type prober struct {
	budget time.Duration
	rec    *Recorder
	out    map[string]Value
}

// time calls fn in batches until the budget is spent (at least three
// batches) and returns the median nanoseconds of one call. The batch size is
// calibrated from a first call so that one batch lasts about 100 µs, long
// enough for the clock and short enough for a median over many batches.
func (p *prober) time(metric string, fn func()) float64 {
	t0 := time.Now()
	fn()
	one := time.Since(t0)
	reps := 1
	if one < 100*time.Microsecond {
		reps = int(100*time.Microsecond/(one+1)) + 1
	}
	p.rec.Enable(true)
	defer p.rec.Enable(false)
	var per []float64
	start := time.Now()
	for len(per) < 3 || time.Since(start) < p.budget {
		b0 := time.Now()
		for i := 0; i < reps; i++ {
			fn()
		}
		b1 := time.Now()
		p.rec.Add(p.rec.NewID(), 0, 0, "probe."+metric, b0, b1)
		per = append(per, float64(b1.Sub(b0).Nanoseconds())/float64(reps))
	}
	return Median(per)
}

// ns, us record a probe in nanoseconds or microseconds of one call, divided
// by per (elements, kilobytes; 1 for a whole call).
func (p *prober) ns(metric string, per float64, fn func()) {
	p.out[metric] = Value{p.time(metric, fn) / per, "ns"}
}

func (p *prober) us(metric string, per float64, fn func()) {
	p.out[metric] = Value{p.time(metric, fn) / 1e3 / per, "us"}
}

// must turns a probe's own error into a panic that runProbes reports: a
// probe that cannot run is a broken benchmark, not a measurement.
func must(err error) {
	if err != nil {
		panic(err)
	}
}

func randVecs(rng *rand.Rand, count, n int) []field.Vec {
	out := make([]field.Vec, count)
	for i := range out {
		out[i] = field.RandVec(rng, n)
	}
	return out
}

func newVecs(count, n int) []field.Vec {
	out := make([]field.Vec, count)
	for i := range out {
		out[i] = field.NewVec(n)
	}
	return out
}

// runProbes runs the ladder at the workload's own geometry: its (K, M, E)
// and the InLen/OutLen/WLen of its model's heaviest bilinear layer.
func runProbes(w *Workload, tm timing, rec *Recorder, out map[string]Value) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("%v", r)
		}
	}()
	p := &prober{budget: tm.probe, rec: rec, out: out}
	rng := rand.New(rand.NewSource(deploySeed))
	model := buildNN(w.Arch, modelSeed)
	lins := model.LinearLayers()
	big := lins[0]
	for _, l := range lins {
		if l.WLen() > big.WLen() {
			big = l
		}
	}
	in, outLen, wlen := big.InLen(), big.OutLen(), big.WLen()
	code, err := masking.New(masking.Params{K: w.K, M: w.M, Redundancy: w.E}, rng)
	if err != nil {
		return err
	}
	gang := code.NumCoded()
	scfg := sched.Config{VirtualBatch: w.K, Collusion: w.M, Redundancy: w.E, Seed: deploySeed}
	data := dataset.SyntheticCIFAR(rand.New(rand.NewSource(trainSetSeed)), trainBatch, classes, imgC, imgH, imgW, 0.05).Items
	images := make([][]float64, w.K)
	for i := range images {
		images[i] = data[i].Image
	}

	// field
	srcs := randVecs(rng, code.S, in)
	c0, c1 := field.RandVec(rng, code.S), field.RandVec(rng, code.S)
	d0, d1 := field.NewVec(in), field.NewVec(in)
	p.ns("field.combine_ns_per_elem", float64(in), func() { field.Combine(d0, c0, srcs) })
	p.ns("field.combine2_ns_per_elem", float64(2*in), func() { field.Combine2(d0, d1, c0, c1, srcs) })
	acc := make([]uint64, in)
	const lazyTerms = 64
	p.ns("field.lazy_axpy_ns_per_elem", float64(lazyTerms*in), func() {
		var b field.Budget
		for t := 0; t < lazyTerms; t++ {
			field.LazyAXPY(acc, c0[t%len(c0)], srcs[t%len(srcs)])
			b.Tick1(acc)
		}
		field.ReduceAcc(acc)
	})
	p.ns("field.randvec_ns_per_elem", float64(in), func() { field.RandVecInto(rng, d0) })

	// quant
	q := quant.Default()
	floats := make([]float64, in)
	for i := range floats {
		floats[i] = rng.Float64()*2 - 1
	}
	p.ns("quant.quantize_ns_per_elem", float64(in), func() { q.QuantizeInto(d0, floats) })
	p.ns("quant.restore_ns_per_elem", float64(in), func() { q.UnquantizeProductInto(floats, d0) })

	// masking
	ins, noise, coded := randVecs(rng, code.K, in), randVecs(rng, code.M, in), newVecs(gang, in)
	p.us("masking.encode_us", 1, func() { must(code.EncodeWith(coded, ins, noise)) })
	// An identity layer's results are the coded inputs themselves, so they
	// decode and verify.
	results, decoded := newVecs(gang, outLen), newVecs(code.K, outLen)
	must(code.EncodeWith(results, randVecs(rng, code.K, outLen), randVecs(rng, code.M, outLen)))
	p.us("masking.decode_fwd_us", 1, func() { must(code.DecodeForwardInto(decoded, results)) })
	present := make([]bool, gang)
	for i := range present {
		// One straggler missing where the code can spare it (E >= 2).
		present[i] = !(w.E >= 2 && i == gang-1)
	}
	p.us("masking.decode_fwd_subset_us", 1, func() { must(code.DecodeForwardSubsetInto(decoded, results, present)) })
	p.us("masking.verify_fwd_us", 1, func() { must(code.VerifyForward(results)) })
	eqs, gradOut := randVecs(rng, code.S, wlen), field.NewVec(wlen)
	p.us("masking.decode_bwd_us", 1, func() { must(code.DecodeBackwardInto(gradOut, eqs)) })
	pool := masking.NewNoisePool(deploySeed, code.M, []int{in}, 64)
	// A Get that outruns the background generator logs one warning and is
	// timed as the miss it is; the warning is not the benchmark's output.
	logTo := log.Writer()
	log.SetOutput(io.Discard)
	p.ns("masking.noisepool_get_ns", 1, func() { pool.Recycle(pool.Get(in)) })
	pool.Close()
	log.SetOutput(logTo)

	// tensor, nn
	a, b := gemmOf(lins)
	a.RandNormal(rng, 1)
	b.RandNormal(rng, 1)
	dst := tensor.New(a.Shape[0], b.Shape[1])
	p.us("tensor.matmul_us", 1, func() { tensor.MatMulInto(dst, a, b) })
	wq, xs, deltas := make([]field.Vec, len(lins)), make([]field.Vec, len(lins)), make([]field.Vec, len(lins))
	for i, l := range lins {
		wq[i], xs[i], deltas[i] = field.RandVec(rng, l.WLen()), field.RandVec(rng, l.InLen()), field.RandVec(rng, l.OutLen())
	}
	p.us("nn.field_forward_us", 1, func() {
		for i, l := range lins {
			l.LinearForwardField(wq[i], xs[i])
		}
	})
	p.us("nn.grad_weights_field_us", 1, func() {
		for i, l := range lins {
			l.GradWeightsField(deltas[i], xs[i])
		}
	})
	p.us("nn.plain_forward_us", 1, func() { model.Forward(images[0], false) })
	plain, opt := buildNN(w.Arch, modelSeed), nn.NewSGD(0.05, 0)
	p.us("nn.plain_step_us", 1, func() { plain.TrainBatch(data, opt) })

	// enclave
	encl, err := enclave.New(enclave.DefaultEPCBytes)
	if err != nil {
		return err
	}
	page := make([]byte, wlen*8)
	kb := float64(len(page)) / 1024
	p.us("enclave.seal_us_per_kb", kb, func() {
		_, err := encl.Seal(page)
		must(err)
	})
	// Unseal consumes its handle, so each timed call seals first and the
	// seal time measured above is taken off.
	both := p.time("enclave.unseal_us_per_kb", func() {
		h, err := encl.Seal(page)
		must(err)
		_, err = encl.Unseal(h)
		must(err)
	})
	unseal := both/1e3/kb - out["enclave.seal_us_per_kb"].Value
	if unseal < 0 {
		unseal = 0
	}
	out["enclave.unseal_us_per_kb"] = Value{unseal, "us"}

	// gpu: identity kernels on zero-latency devices — pure fan-out/gather.
	ident := func(x field.Vec) field.Vec { return x }
	identGrad := func(delta, _ field.Vec) field.Vec { return delta }
	cluster := gpu.NewHonestCluster(gang)
	p.us("gpu.forward_all_us", 1, func() {
		_, err := cluster.ForwardAll("probe", ident, coded)
		must(err)
	})
	p.us("gpu.backward_all_us", 1, func() {
		_, err := cluster.BackwardAll("probe", identGrad, coded)
		must(err)
	})
	p.us("gpu.block_layer_us", 1, func() {
		flight, err := cluster.BeginBlock(gang)
		must(err)
		pending, err := flight.ForwardLayer("probe", ident, coded)
		must(err)
		pending.Wait()
		flight.End()
	})

	// fleet
	fm := fleet.NewManager(gpu.NewHonestCluster(gang), fleet.Config{Seed: deploySeed})
	p.us("fleet.acquire_release_us", 1, func() {
		g, err := fm.Acquire(context.Background(), "probe", gang)
		must(err)
		g.Release()
	})
	quorum := gang
	if w.E >= 2 {
		quorum = gang - 1
	}
	grant, err := fm.Acquire(context.Background(), "probe", gang)
	if err != nil {
		return err
	}
	p.us("fleet.quorum_forward_us", 1, func() {
		_, _, err := grant.ForwardQuorum("probe", ident, coded, quorum)
		must(err)
	})
	grant.Release()

	// sched: each engine caches forward state in its model, so each gets
	// its own replica.
	inf, err := sched.NewInferencer(scfg, buildNN(w.Arch, modelSeed), nil, "probe-inf/")
	if err != nil {
		return err
	}
	p.us("sched.forward_us", 1, func() {
		_, err := inf.Forward(cluster, images)
		must(err)
	})
	inf.Close()
	fcfg := scfg
	fcfg.FuseBlocks = true
	fused, err := sched.NewInferencer(fcfg, buildNN(w.Arch, modelSeed), nil, "probe-fused/")
	if err != nil {
		return err
	}
	p.us("sched.forward_fused_us", 1, func() {
		_, err := fused.Forward(cluster, images)
		must(err)
	})
	fused.Close()
	// The constructor refuses depth < 2, so "depth 1" is a depth-2 Pipeline
	// driven one batch at a time: the pipelined driver's cost over the
	// serial Inferencer above with nothing to overlap.
	pipe, err := sched.NewPipeline(scfg, buildNN(w.Arch, modelSeed), nil, "probe-pipe/", 2)
	if err != nil {
		return err
	}
	p.us("sched.pipeline_depth1_us", 1, func() {
		tk, err := pipe.Submit(cluster, images)
		must(err)
		must(tk.Wait())
	})
	pipe.Close()
	trainer, err := sched.NewTrainer(scfg, buildNN(w.Arch, modelSeed), cluster, nil)
	if err != nil {
		return err
	}
	p.us("sched.train_step_us", 1, func() {
		_, _, err := trainer.TrainLargeBatch(data[:w.K], opt, 0)
		must(err)
	})

	// obs
	tracer := obs.NewTracer(1, 16, deploySeed)
	p.ns("obs.span_ns", 1, func() { tracer.Start("probe").End() })
	hist := obs.NewRegistry().Histogram("bench_probe_seconds", "probe", obs.LatencyBuckets())
	p.ns("obs.histogram_observe_ns", 1, func() { hist.Observe(0.0012) })
	const observes = 10000
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < observes; i++ {
		hist.Observe(0.0012)
	}
	runtime.ReadMemStats(&m1)
	out["obs.allocs_per_observe"] = Value{float64(m1.Mallocs-m0.Mallocs) / observes, "count"}
	frac, err := obsAttachedOverhead(tm)
	if err != nil {
		return err
	}
	out["obs.attached_overhead_frac"] = Value{frac, "frac"}

	// client: one sealed frame of K rows through the attested front end.
	srv, err := serve.New(serve.Config{Sched: scfg, MaxWait: 2 * time.Millisecond},
		[]*nn.Model{buildNN(w.Arch, modelSeed), buildNN(w.Arch, modelSeed)},
		fleet.NewManager(gpu.NewHonestCluster(2*gang), fleet.Config{Seed: deploySeed}), nil)
	if err != nil {
		return err
	}
	defer srv.Close()
	fe, err := serve.NewFrontend(srv, []byte("darknight bench probe"))
	if err != nil {
		return err
	}
	sess, pub, err := client.Establish(fe.Platform(), fe.Measurement(), fe.PublicKey(), fe.Quote)
	if err != nil {
		return err
	}
	conn, err := fe.Accept(pub)
	if err != nil {
		return err
	}
	frame := make([]dataset.Example, w.K)
	for i := range frame {
		frame[i] = dataset.Example{Image: data[i].Image, Label: -1}
	}
	p.us("client.seal_open_us", 1, func() {
		blob, err := sess.SealBatch(frame)
		must(err)
		resp, err := conn.HandleSealed(context.Background(), blob)
		must(err)
		_, err = sess.OpenPredictions(resp)
		must(err)
	})

	// slalom: the paper's Fig. 6a comparison point.
	sl := slalom.New(buildNN(w.Arch, modelSeed), true, deploySeed)
	p.us("slalom.forward_us", 1, func() {
		_, err := sl.Infer(images[0])
		must(err)
	})
	return nil
}

// gemmOf returns operands shaped like the model's largest convolution GEMM
// (weights × patch matrix), or, for a model without convolutions, like its
// largest dense layer applied to one row.
func gemmOf(lins []nn.Linear) (a, b *tensor.Tensor) {
	m, k, n := 0, 0, 0
	for _, l := range lins {
		lm, lk, ln := 1, l.InLen(), l.OutLen()
		if c, ok := l.(*nn.Conv2D); ok {
			cp := c.Conv()
			lm, lk, ln = cp.OutC, cp.InC/cp.Groups*cp.KH*cp.KW, cp.OutH()*cp.OutW()
		}
		if lm*lk*ln > m*k*n {
			m, k, n = lm, lk, ln
		}
	}
	return tensor.New(m, k), tensor.New(k, n)
}

// obsAttachedOverhead answers ROADMAP's "2.5 % or 10 %?" question: the
// throughput the infer_compute deployment loses with the observability stack
// attached but not sampling, by the paired-median primitive.
func obsAttachedOverhead(tm timing) (float64, error) {
	base, err := FindWorkload("infer_compute")
	if err != nil {
		return 0, err
	}
	reqs := darknight.SyntheticDataset(requestSetSize, classes, imgC, imgH, imgW, deploySeed)
	side := func(on bool) (*inferDep, error) {
		w := *base
		w.server = func() darknight.ServerConfig {
			cfg := base.server()
			cfg.Observability = darknight.ObservabilityConfig{Enabled: on}
			return cfg
		}
		// Untrained weights: only throughput is read here.
		d, _, err := setupInfer(&w, deploySeed, reqs, 0)
		return d, err
	}
	off, err := side(false)
	if err != nil {
		return 0, err
	}
	defer off.close()
	on, err := side(true)
	if err != nil {
		return 0, err
	}
	defer on.close()
	rate := func(d *inferDep) func() float64 {
		return func() float64 {
			s := d.closedSlice(tm.obsRound, nil)
			return ratio(float64(s.rows), s.elapsed.Seconds())
		}
	}
	return 1 - PairedMedian(tm.obsRounds, rate(off), rate(on)), nil
}
