package sched

import (
	"fmt"
	"sync"

	"darknight/internal/dataset"
	"darknight/internal/enclave"
	"darknight/internal/masking"
	"darknight/internal/nn"
	"darknight/internal/obs"
	"darknight/internal/tensor"
)

// GangSource supplies one device gang per in-flight virtual batch of a
// training run. The trivial SingleFleetSource reuses one shared fleet;
// fleet-managed deployments (the darknight facade) back it with per-batch
// fleet.Manager grants so each flight owns its own healthy gang and
// integrity verdicts feed quarantine.
type GangSource interface {
	// Acquire blocks until a gang-sized Fleet is available. It must be safe
	// for concurrent use with Release (releases happen on lane goroutines).
	Acquire() (Fleet, error)
	// Release returns a gang after its batch completed. culprits are the
	// gang slots attributed as tampering while the batch ran and err is the
	// batch's terminal error (nil on success) — fleet-managed sources fold
	// both into device health before recycling the devices.
	Release(f Fleet, culprits []int, err error)
}

// SingleFleetSource is the trivial GangSource: every virtual batch
// dispatches on the same shared fleet — typically a whole *gpu.Cluster,
// which tolerates overlapping dispatches via per-call gather buffers.
type SingleFleetSource struct{ F Fleet }

// Acquire implements GangSource.
func (s SingleFleetSource) Acquire() (Fleet, error) { return s.F, nil }

// Release implements GangSource.
func (s SingleFleetSource) Release(Fleet, []int, error) {}

// trainTicket is the completion handle of one virtual batch riding the
// training pipeline: its mean loss, the sealed Algorithm-2 gradient shard
// handles, and the integrity verdict. TrainPipeline.tickets reuses it step
// after step; done carries one token per batch it completes.
type trainTicket struct {
	done        chan struct{}
	loss        float64
	handles     []uint64
	sealedBytes int64
	// normLog holds the batch-norm running-statistics updates of the batch's
	// forwards until TrainLargeBatch applies them in virtual-batch order.
	normLog  nn.StatsLog
	culprits []int
	err      error
}

// TrainPipeline is the training runtime: up to Depth virtual batches ride
// the encode→dispatch→decode stages of BOTH passes at once, so while batch
// i's coded shares (forward or backward) are on the devices, the TEE
// decodes batch i−1 and encodes batch i+1. Depth is a number, not a mode: a
// depth-1 TrainPipeline is the serial trainer. It sits on the same lane
// machinery as Pipeline (see lanes) and adds the training-specific parts on
// top:
//
//   - data-parallel gradient isolation: every lane owns a private set of
//     gradient accumulators and re-installs them into the shared model's
//     params at every token acquisition (engine.onToken), so concurrent
//     lanes never interleave writes into one ▽W. TEE work remains strictly
//     serialized under the token — one enclave context, bit-for-bit the
//     serial schedule per batch;
//   - Algorithm-2 aggregation: each lane seals its finished ▽W_v shard-wise
//     to untrusted memory, and TrainLargeBatch aggregates the sealed shards
//     in virtual-batch order — fixing the float summation order — so the
//     final weights are bit-identical at every depth (pinned against
//     internal/spec/stack by TestTrainPipelineMatchesSerial). Batch-norm
//     running statistics, an order-dependent moving average, are held
//     back per virtual batch and applied in the same order;
//   - fleet-backed dispatch: each in-flight batch runs on its own gang from
//     a GangSource, with integrity culprits reported back on release, and
//     the backward pass inherits the engine's straggler-tolerant
//     dual-window quorum.
type TrainPipeline struct {
	*lanes
	model *nn.Model

	params     []*nn.Param
	origGrads  []*tensor.Tensor   // the model's own accumulators, restored after aggregation
	grads      [][]*tensor.Tensor // per lane: one private accumulator per model param
	totalElems int
	norms      []*nn.BatchNorm // the model's batch-norm layers
	normLogs   []*nn.StatsLog  // per lane: the running-statistics log of its batch

	runMu sync.Mutex // one TrainLargeBatch at a time
	// tickets holds the completion tickets of a step's virtual batches,
	// reused step after step under runMu.
	tickets []*trainTicket
	store   *gradStore // seals per-virtual-batch gradient shards (Algorithm 2)
	// sealBufs holds, per lane, the byte image of its ▽W that sealGrads
	// encodes and seals; reused batch after batch (Seal copies out of it).
	sealBufs [][]byte
	// agg is the step's aggregated ▽W, one element per weight, reused step
	// after step.
	agg []float64

	// tracer, when non-nil, samples per-virtual-batch trace spans: each
	// sampled batch yields a root with its forward/backward offload trees,
	// annotated with the carrying lane.
	tracer *obs.Tracer
}

// NewTrainPipeline wires a training runtime of the given depth (>= 1; depth
// 1 is the serial runtime, which Trainer wraps) around one shared model
// replica; see newLanes for the enclave contract — each in-flight batch
// additionally seals its own gradient shards.
//
// The model must not be trained or evaluated through any other path while
// a TrainLargeBatch is running — the lanes temporarily redirect its
// gradient accumulators.
func NewTrainPipeline(cfg Config, model *nn.Model, encl *enclave.Enclave, depth int) (*TrainPipeline, error) {
	l, err := newLanes(cfg, model, encl, depth)
	if err != nil {
		return nil, err
	}
	p := &TrainPipeline{
		lanes:    l,
		model:    model,
		params:   model.Params(),
		grads:    make([][]*tensor.Tensor, depth),
		store:    newGradStore(encl),
		sealBufs: make([][]byte, depth),
		norms:    model.BatchNorms(),
		normLogs: make([]*nn.StatsLog, depth),
	}
	for _, prm := range p.params {
		p.origGrads = append(p.origGrads, prm.Grad)
		p.totalElems += prm.W.Size()
	}
	p.agg = make([]float64, p.totalElems)
	for i, lane := range l.all {
		grads := make([]*tensor.Tensor, len(p.params))
		for j, prm := range p.params {
			grads[j] = prm.Grad.Clone()
			grads[j].Zero()
		}
		p.grads[i] = grads
		// Every token acquisition re-installs this lane's gradient and
		// statistics sinks: another lane may have swapped in its own during
		// this lane's GPU flight.
		lane.onToken = func() {
			for j, prm := range p.params {
				prm.Grad = grads[j]
			}
			for _, bn := range p.norms {
				bn.Log = p.normLogs[i]
			}
		}
	}
	return p, nil
}

// SetTracer attaches a sampling tracer: each sampled virtual batch
// produces a "train.vbatch" root span carrying the batch's
// forward/backward offload trees. Call before training traffic starts.
func (p *TrainPipeline) SetTracer(tr *obs.Tracer) { p.tracer = tr }

// TrainLargeBatch trains on len(batch) examples: floor(N/K) virtual
// batches, each one's ▽W sealed shard-wise to untrusted memory, then one
// aggregated SGD step (Algorithm 2). Up to Depth virtual batches are in
// flight at once, each on its own gang from the GangSource. Aggregation
// runs in virtual-batch order regardless of completion order, so the
// updated weights are bit-identical at every depth. Tail examples beyond
// the last full virtual batch are dropped and counted in
// AggregationStats.DroppedExamples. shardElems is the aggregation shard
// granularity in elements (<= 0 picks a single shard); opt applies the
// final update.
func (p *TrainPipeline) TrainLargeBatch(src GangSource, batch []dataset.Example, opt *nn.SGD, shardElems int) (float64, AggregationStats, error) {
	k := p.cfg.VirtualBatch
	var stats AggregationStats
	if len(batch) < k {
		return 0, stats, fmt.Errorf("sched: large batch %d smaller than virtual batch %d", len(batch), k)
	}
	for _, ex := range batch {
		if err := p.model.CheckExample(ex); err != nil {
			return 0, stats, err
		}
	}
	p.runMu.Lock()
	defer p.runMu.Unlock()
	if p.isClosed() {
		return 0, stats, fmt.Errorf("sched: train pipeline closed")
	}
	if shardElems <= 0 {
		shardElems = p.totalElems
	}
	numVB := len(batch) / k
	stats.DroppedExamples = len(batch) - numVB*k

	for len(p.tickets) < numVB {
		p.tickets = append(p.tickets, &trainTicket{done: make(chan struct{}, 1)})
	}
	tickets := p.tickets[:numVB]
	var submitErr error
	for v, t := range tickets {
		f, err := src.Acquire()
		if err != nil {
			submitErr = err
			tickets = tickets[:v]
			break
		}
		p.submit(t, f, src, batch[v*k:(v+1)*k], shardElems)
	}

	// Gather in virtual-batch order: summing losses and (below) gradients
	// in submission order fixes the float accumulation order, making the
	// result independent of which lane finished first.
	var totalLoss float64
	var firstErr error
	allHandles := make([][]uint64, 0, numVB)
	for _, tk := range tickets {
		<-tk.done
		if tk.err != nil && firstErr == nil {
			firstErr = tk.err
		}
		totalLoss += tk.loss
		allHandles = append(allHandles, tk.handles)
		stats.SealedBytes += tk.sealedBytes
		stats.Shards = len(tk.handles)
	}
	if firstErr == nil {
		firstErr = submitErr
	}
	// All lanes are idle now: restore the model's own gradient accumulators
	// and running statistics.
	for i, prm := range p.params {
		prm.Grad = p.origGrads[i]
	}
	for _, bn := range p.norms {
		bn.Log = nil
	}
	if firstErr != nil {
		// Drain the successful batches' sealed shards — handles are
		// consume-on-unseal, so abandoning them would strand ciphertexts in
		// untrusted memory for the process lifetime.
		p.store.discard(allHandles)
		return 0, stats, firstErr
	}
	stats.VirtualBatches = numVB

	// UpdateAggregation (Algorithm 2 lines 14–21): virtual-batch-order
	// summation, so the aggregate is bit-identical however the lanes
	// interleaved.
	if err := p.store.aggregate(p.agg, allHandles, shardElems, stats.Shards); err != nil {
		return 0, stats, err
	}

	applyAggregate(p.params, p.agg, 1.0/float64(numVB*k), opt)
	for _, tk := range tickets {
		tk.normLog.Apply()
	}
	return totalLoss / float64(numVB), stats, nil
}

// submit enters one virtual batch into the pipeline on the given gang,
// blocking only while all Depth lanes are busy; t, emptied first, signals
// its end on done.
func (p *TrainPipeline) submit(t *trainTicket, f Fleet, src GangSource, examples []dataset.Example, shardElems int) {
	t.loss, t.handles, t.sealedBytes, t.culprits, t.err = 0, nil, 0, nil, nil
	t.normLog.Discard() // a failed step never applied it
	if need := p.Gang(); f.Size() < need {
		t.err = fmt.Errorf("sched: gang of %d devices required, fleet has %d", need, f.Size())
		src.Release(f, nil, t.err)
		t.done <- struct{}{}
		return
	}
	go p.run(p.acquire(f), src, examples, shardElems, t)
}

// run drives one virtual batch down a lane: the full masked
// forward+backward on one gang flight under the TEE token (released by the
// engine while a layer is on the devices), then shard-wise sealing of the
// lane's ▽W before the lane is recycled. The flight ends before the gang
// goes back to its source.
func (p *TrainPipeline) run(lane *engine, src GangSource, examples []dataset.Example, shardElems int, t *trainTicket) {
	f := lane.fleet
	sp := p.tracer.Start("train.vbatch")
	lane.trace(sp)
	code, err := masking.New(lane.cfg.maskParams(), lane.rng)
	if err == nil {
		err = lane.openBatchFlight()
	}
	if err == nil {
		k := lane.cfg.VirtualBatch
		// The lane's accumulators are touched only while it holds the token,
		// except here: no other goroutine references them while the lane is
		// off-duty.
		for _, g := range p.grads[lane.lane] {
			g.Zero()
		}
		p.normLogs[lane.lane] = &t.normLog
		lane.lockTEE()
		// The batch's inputs wrap the examples' images without copying them.
		xs := lane.mem.set(k)
		for i := range xs {
			xs[i] = lane.mem.header(p.model.InShape, examples[i].Image)
		}
		var logits []*tensor.Tensor
		var tr *trace
		logits, tr, err = lane.forwardLayer(code, p.model.Stack, xs, true)
		if err == nil {
			grads := lane.mem.set(k)
			var total float64
			for i, l := range logits {
				grads[i] = lane.mem.tensor(l.Shape, l.Size())
				total += nn.SoftmaxCrossEntropyInto(grads[i], l, examples[i].Label)
			}
			t.loss = total / float64(k)
			err = lane.backward(code, tr, grads)
		}
		t.culprits = append([]int(nil), lane.stepCulprits...)
		p.tee.Unlock()
	}
	lane.endBatchFlight()
	// Ending the root files the completed trace with the tracer.
	sp.End()
	if err == nil {
		// Seal this virtual batch's ▽W shard-wise (Algorithm 2 lines 9–10)
		// before the lane — and with it these accumulators — is recycled.
		t.handles, t.sealedBytes, err = p.sealGrads(lane.lane, shardElems)
	}
	t.err = err
	src.Release(f, t.culprits, err)
	p.release(lane)
	t.done <- struct{}{}
}

// sealGrads encodes a lane's accumulators (params order) into the lane's
// seal buffer and seals them shard-wise to untrusted memory (Algorithm 2
// lines 9–10).
func (p *TrainPipeline) sealGrads(lane, shardElems int) ([]uint64, int64, error) {
	p.sealBufs[lane] = putGrads(p.sealBufs[lane], p.grads[lane])
	return p.store.sealShards(p.sealBufs[lane], shardElems)
}
