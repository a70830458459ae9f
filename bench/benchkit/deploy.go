package benchkit

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"darknight"
	"darknight/internal/enclave"
	"darknight/internal/gpu"
	"darknight/internal/nn"
)

// sliceStats is what one coded slice of the measured window produced.
type sliceStats struct {
	elapsed time.Duration
	// sent counts requests (or training steps) issued, refused the ones
	// the open-loop generator dropped at maxOutstanding, failed the ones
	// the program answered with an error, rows the real rows completed
	// (requests, or training examples).
	sent, refused, failed, rows int64
	// sloMiss counts requests sent that failed, were refused, or were
	// answered later than the limit after their due time.
	sloMiss int64
	// mismatch counts served classes that differ from the float twin's.
	mismatch int64
	latMs    []float64 // due → reply, completed requests only
	lateMs   []float64 // due → sent (open loop only)
	traced   bool
	// errs counts failures by class, so a failed run explains itself.
	errs map[string]int64

	cpu        time.Duration
	mallocs    uint64
	allocBytes uint64
	gcPauseNs  uint64
	heapInuse  uint64
}

// attempted is the denominator of ok_frac and slo_met_frac.
func (s *sliceStats) attempted() int64 { return s.sent + s.refused }

// counters is one reading of everything the program exports.
type counters struct {
	serve   darknight.ServerMetrics
	fleet   darknight.FleetStats
	traffic gpu.Traffic
	encl    enclave.Stats
	phases  darknight.TrainPhaseStats
}

// deployment is a built workload: the program under test plus the float
// baseline it is compared with.
type deployment interface {
	// slice runs the workload's load for dur and reports what happened.
	// idx seeds the open-loop schedule; rec records the harness's spans
	// while it is enabled.
	slice(idx int, dur time.Duration, rec *Recorder) sliceStats
	// floatSlice runs the un-coded float baseline over the same rows with
	// the same worker count for dur, returning rows completed and elapsed.
	// With pause > 0 each worker sleeps that long after every batch, so the
	// baseline's CPU time is spent in bursts as the paced workload's is.
	floatSlice(dur, pause time.Duration) (rows int64, elapsed time.Duration)
	counters() counters
	// classMatch returns how many served classes were compared with the
	// float twin's and how many matched: every reply of the window on
	// inference, a prediction pass after it on training.
	classMatch(agg window) (match, total int64, err error)
	close()
}

// ---- inference ----

type inferDep struct {
	w          *Workload
	seed       int64
	srv        *darknight.Server
	reqs       []darknight.Example
	floatClass []int
	twins      []*nn.Model // one float replica per worker
	next       atomic.Int64
}

// setupInfer builds an inference deployment: model, setupSteps private
// training steps on a serial System so the logits separate, weights copied
// into the worker replicas, server. construct is the part spent building
// the model, the replicas and the server (no training).
func setupInfer(w *Workload, seed int64, reqs []darknight.Example, steps int) (d *inferDep, construct time.Duration, err error) {
	t0 := time.Now()
	ref, err := darknight.BuildModel(w.Arch, modelSeed)
	if err != nil {
		return nil, 0, err
	}
	sys, err := darknight.NewSystem(ref, darknight.Config{VirtualBatch: 4, EnclaveBytes: -1, Seed: deploySeed})
	if err != nil {
		return nil, 0, err
	}
	construct = time.Since(t0)
	set := darknight.SyntheticDataset(steps*trainBatch, classes, imgC, imgH, imgW, trainSetSeed)
	for s := 0; s < steps; s++ {
		if _, err := sys.TrainBatch(set[s*trainBatch : (s+1)*trainBatch]); err != nil {
			sys.Close()
			return nil, 0, fmt.Errorf("set-up step %d: %w", s, err)
		}
	}
	sys.Close()

	t1 := time.Now()
	var buildErr error
	srv, err := darknight.NewServer(func() *darknight.Model {
		m, err := darknight.BuildModel(w.Arch, modelSeed)
		if err == nil {
			err = m.CopyWeightsFrom(ref)
		}
		if err != nil {
			buildErr = err
		}
		return m
	}, w.server())
	if err == nil {
		err = buildErr
	}
	if err != nil {
		return nil, 0, err
	}
	construct += time.Since(t1)

	d = &inferDep{w: w, seed: seed, srv: srv, reqs: reqs, floatClass: make([]int, len(reqs))}
	for i := 0; i < workers; i++ {
		twin, err := floatTwin(w.Arch, ref)
		if err != nil {
			srv.Close()
			return nil, 0, err
		}
		d.twins = append(d.twins, twin)
	}
	for i, ex := range reqs {
		d.floatClass[i] = nn.Argmax(d.twins[0].Forward(ex.Image, false))
	}
	return d, construct, nil
}

// floatAccuracy is the float twin's top-1 accuracy on the request set.
func (d *inferDep) floatAccuracy() float64 {
	ok := 0
	for i, ex := range d.reqs {
		if d.floatClass[i] == ex.Label {
			ok++
		}
	}
	return float64(ok) / float64(len(d.reqs))
}

func (d *inferDep) close() { d.srv.Close() }

func (d *inferDep) queueDepth() int { return d.srv.Metrics().QueueDepth }

func (d *inferDep) classMatch(agg window) (int64, int64, error) {
	return agg.rows - agg.mismatch, agg.rows, nil
}

func (d *inferDep) counters() counters {
	m := d.srv.Metrics()
	return counters{serve: m, fleet: m.Fleet, traffic: d.srv.GPUTraffic(), encl: d.srv.EnclaveStats(), phases: m.Phases}
}

func (d *inferDep) slice(idx int, dur time.Duration, rec *Recorder) sliceStats {
	if d.w.Kind == OpenLoop {
		return d.openSlice(idx, dur, rec)
	}
	return d.closedSlice(dur, rec)
}

// reply is the outcome of one request.
type reply struct {
	sent, refused, failed, mismatch bool
	latMs, lateMs                   float64
	errClass                        string
}

// classify names the kind of failure a request ended with.
func classify(err error) string {
	switch {
	case darknight.IsShed(err):
		return "shed"
	case darknight.IsDeadline(err):
		return "deadline"
	case darknight.IsIntegrityError(err):
		return "integrity"
	case errors.Is(err, darknight.ErrRetriesExhausted):
		return "retries_exhausted"
	}
	return "other: " + err.Error()
}

// issue sends one request due at due and records its spans: request (due →
// reply) ⊃ infer_call (sent → reply).
func (d *inferDep) issue(tenant string, img int, due time.Time, rec *Recorder) reply {
	// The spans of one request share its root span's ID as request ID.
	parent, call := rec.NewID(), rec.NewID()
	sent := time.Now()
	var class int
	var err error
	if tenant == "" {
		class, err = d.srv.Infer(context.Background(), d.reqs[img].Image)
	} else {
		class, err = d.srv.InferAs(context.Background(), tenant, d.reqs[img].Image)
	}
	done := time.Now()
	rec.Add(call, parent, parent, "infer_call", sent, done)
	rec.Add(parent, 0, parent, "request", due, done)
	r := reply{sent: true, failed: err != nil,
		latMs:  float64(done.Sub(due)) / float64(time.Millisecond),
		lateMs: float64(sent.Sub(due)) / float64(time.Millisecond)}
	switch {
	case err != nil:
		r.errClass = classify(err)
	case class != d.floatClass[img]:
		r.mismatch = true
	}
	return r
}

// fold adds one reply to the slice totals.
func (s *sliceStats) fold(r reply, limit time.Duration) {
	switch {
	case r.refused:
		s.refused++
		s.sloMiss++
		return
	case r.failed:
		s.sent++
		s.failed++
		s.sloMiss++
		if s.errs == nil {
			s.errs = map[string]int64{}
		}
		s.errs[r.errClass]++
		return
	}
	s.sent++
	s.rows++
	s.latMs = append(s.latMs, r.latMs)
	if r.latMs > float64(limit)/float64(time.Millisecond) {
		s.sloMiss++
	}
	if r.mismatch {
		s.mismatch++
	}
}

func (d *inferDep) closedSlice(dur time.Duration, rec *Recorder) sliceStats {
	per := make([][]reply, d.w.Clients)
	start := time.Now()
	deadline := start.Add(dur)
	var wg sync.WaitGroup
	for c := range per {
		wg.Add(1)
		go func(out *[]reply) {
			defer wg.Done()
			for {
				now := time.Now()
				if !now.Before(deadline) {
					return
				}
				img := int(d.next.Add(1)-1) % len(d.reqs)
				*out = append(*out, d.issue("", img, now, rec))
			}
		}(&per[c])
	}
	wg.Wait()
	s := sliceStats{elapsed: time.Since(start)}
	for _, rs := range per {
		for _, r := range rs {
			s.fold(r, d.w.Limit)
		}
	}
	return s
}

func (d *inferDep) openSlice(idx int, dur time.Duration, rec *Recorder) sliceStats {
	// One schedule per slice, a pure function of (-seed, slice index).
	sched := PoissonSchedule(d.seed*1_000_003+int64(idx), d.w.Rate, dur, len(d.reqs), d.w.Tenants)
	replies := make([]reply, len(sched))
	var outstanding atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for i, a := range sched {
		due := start.Add(a.Due)
		if wait := time.Until(due); wait > 0 {
			time.Sleep(wait)
		}
		if outstanding.Load() >= maxOutstanding {
			replies[i].refused = true
			continue
		}
		outstanding.Add(1)
		wg.Add(1)
		go func(i int, a Arrival) {
			defer wg.Done()
			replies[i] = d.issue(a.Tenant, a.Image, due, rec)
			outstanding.Add(-1)
		}(i, a)
	}
	wg.Wait()
	s := sliceStats{elapsed: time.Since(start)}
	if s.elapsed < dur {
		// The schedule covers dur even when its last arrival came early.
		s.elapsed = dur
	}
	for _, r := range replies {
		s.fold(r, d.w.Limit)
		if r.sent {
			s.lateMs = append(s.lateMs, r.lateMs)
		}
	}
	return s
}

func (d *inferDep) floatSlice(dur, pause time.Duration) (int64, time.Duration) {
	var rows atomic.Int64
	start := time.Now()
	deadline := start.Add(dur)
	var wg sync.WaitGroup
	for _, twin := range d.twins {
		wg.Add(1)
		go func(m *nn.Model) {
			defer wg.Done()
			n := int64(0)
			for time.Now().Before(deadline) {
				for k := 0; k < d.w.K; k++ {
					img := int(d.next.Add(1)-1) % len(d.reqs)
					floatSink.Store(int64(nn.Argmax(m.Forward(d.reqs[img].Image, false))))
					n++
				}
				if pause > 0 {
					time.Sleep(pause)
				}
			}
			rows.Add(n)
		}(twin)
	}
	wg.Wait()
	return rows.Load(), time.Since(start)
}

// floatSink keeps the baseline's result alive.
var floatSink atomic.Int64

// ---- training ----

type trainDep struct {
	w       *Workload
	sys     *darknight.System
	model   *darknight.Model
	batches [][]darknight.Example
	reqs    []darknight.Example
	twin    *nn.Model
	opt     *nn.SGD
	cursor  int
}

// setupTrain builds a training deployment and runs the fixed pre-phase on
// it: steps training steps whose loss must fall below a quarter of the first
// step's, and — where the deployment is pipelined — whose weights must be
// bit-identical to a serial System fed the same seed and batches. A failed
// check is returned in checks, not as an error.
func setupTrain(w *Workload, reqs []darknight.Example, steps int) (d *trainDep, construct time.Duration, checks []string, err error) {
	t0 := time.Now()
	model, err := darknight.BuildModel(w.Arch, modelSeed)
	if err != nil {
		return nil, 0, nil, err
	}
	cfg := w.system()
	sys, err := darknight.NewSystem(model, cfg)
	if err != nil {
		return nil, 0, nil, err
	}
	construct = time.Since(t0)
	// The float baseline steps with a zero learning rate: the same work per
	// step, on weights that stay put, so its speed cannot drift as a twin
	// trained for thousands of steps would.
	d = &trainDep{w: w, sys: sys, model: model, reqs: reqs, opt: nn.NewSGD(0, 0)}
	for i := 0; i+trainBatch <= len(reqs); i += trainBatch {
		d.batches = append(d.batches, reqs[i:i+trainBatch])
	}

	var serial *darknight.System
	var serialModel *darknight.Model
	if cfg.TrainPipelineDepth >= 2 {
		serialModel, err = darknight.BuildModel(w.Arch, modelSeed)
		if err != nil {
			sys.Close()
			return nil, 0, nil, err
		}
		// Weights do not depend on device latency, so the serial reference
		// runs without it.
		scfg := cfg
		scfg.TrainPipelineDepth, scfg.ManagedFleet, scfg.SpareGPUs, scfg.StragglerSlack = 0, false, 0, 0
		scfg.SlowAll, scfg.SlowDelay = false, 0
		serial, err = darknight.NewSystem(serialModel, scfg)
		if err != nil {
			sys.Close()
			return nil, 0, nil, err
		}
		defer serial.Close()
	}
	var first, last float64
	for s := 0; s < steps; s++ {
		b := d.batches[s%len(d.batches)]
		loss, err := sys.TrainBatch(b)
		if err != nil {
			sys.Close()
			return nil, 0, nil, fmt.Errorf("pre-phase step %d: %w", s, err)
		}
		if s == 0 {
			first = loss
		}
		last = loss
		if serial != nil {
			if _, err := serial.TrainBatch(b); err != nil {
				sys.Close()
				return nil, 0, nil, fmt.Errorf("serial reference step %d: %w", s, err)
			}
		}
	}
	if steps >= checkSteps && !(last < first/4) {
		checks = append(checks, fmt.Sprintf("pre-phase loss %.4f did not fall below a quarter of the first step's %.4f", last, first))
	}
	if serial != nil {
		a, b := model.Weights(), serialModel.Weights()
		same := len(a) == len(b)
		for i := 0; same && i < len(a); i++ {
			same = math.Float64bits(a[i]) == math.Float64bits(b[i])
		}
		if !same {
			checks = append(checks, "pipelined weights differ from the serial System's after the pre-phase")
		}
	}
	d.twin, err = floatTwin(w.Arch, model)
	if err != nil {
		sys.Close()
		return nil, 0, nil, err
	}
	return d, construct, checks, nil
}

func (d *trainDep) close() { d.sys.Close() }

func (d *trainDep) counters() counters {
	return counters{fleet: d.sys.FleetStats(), traffic: d.sys.GPUTraffic(), encl: d.sys.EnclaveStats(),
		phases: d.sys.TrainPhases()}
}

// slice loops TrainBatch in a single caller. Spans: step ⊃ train_batch.
func (d *trainDep) slice(_ int, dur time.Duration, rec *Recorder) sliceStats {
	var s sliceStats
	start := time.Now()
	deadline := start.Add(dur)
	for {
		t0 := time.Now()
		if !t0.Before(deadline) {
			break
		}
		parent, call := rec.NewID(), rec.NewID()
		b := d.batches[d.cursor%len(d.batches)]
		d.cursor++
		t1 := time.Now()
		loss, err := d.sys.TrainBatch(b)
		t2 := time.Now()
		rec.Add(call, parent, parent, "train_batch", t1, t2)
		rec.Add(parent, 0, parent, "step", t0, t2)
		r := reply{sent: true, latMs: float64(t2.Sub(t0)) / float64(time.Millisecond)}
		switch {
		case err != nil:
			r.failed, r.errClass = true, classify(err)
		case math.IsNaN(loss) || math.IsInf(loss, 0):
			r.failed, r.errClass = true, "loss is not finite"
		}
		s.fold(r, d.w.Limit)
	}
	s.elapsed = time.Since(start)
	// A training row is an example, not a step.
	s.rows *= trainBatch
	return s
}

func (d *trainDep) floatSlice(dur, pause time.Duration) (int64, time.Duration) {
	start := time.Now()
	deadline := start.Add(dur)
	var rows int64
	for i := 0; time.Now().Before(deadline); i++ {
		d.twin.TrainBatch(d.batches[i%len(d.batches)], d.opt)
		rows += trainBatch
		if pause > 0 {
			time.Sleep(pause)
		}
	}
	return rows, time.Since(start)
}

// classMatch compares the coded prediction with the un-coded float forward
// of the weight-identical model on the head of the request set.
func (d *trainDep) classMatch(window) (match, total int64, err error) {
	twin, err := floatTwin(d.w.Arch, d.model)
	if err != nil {
		return 0, 0, err
	}
	k := d.w.K
	for i := 0; i+k <= len(d.reqs) && total < 64; i += k {
		imgs := make([][]float64, k)
		for j := range imgs {
			imgs[j] = d.reqs[i+j].Image
		}
		got, err := d.sys.Predict(imgs)
		if err != nil {
			return 0, 0, fmt.Errorf("predict: %w", err)
		}
		for j, c := range got {
			total++
			if c == nn.Argmax(twin.Forward(imgs[j], false)) {
				match++
			}
		}
	}
	return match, total, nil
}
