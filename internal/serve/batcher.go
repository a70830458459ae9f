package serve

import (
	"math/rand"
	"sync"
	"time"

	"darknight/internal/obs"
)

// vbatch is one virtual batch headed for a worker: exactly K images of one
// tenant, the first len(reqs) of which are real client rows and the rest
// uniform-noise padding.
type vbatch struct {
	tenant string
	reqs   []*request
	images [][]float64

	// seal is opened on the leader span at flush time and closed when a
	// worker picks the batch up — the handoff wait between batcher and
	// worker pool. Nil when no rider is sampled.
	seal *obs.Span

	// mu guards reqs/images/sealed between the batcher (continuous rider
	// admission) and the worker that picks the batch up. A batch is sealed
	// at worker pickup — not at flush — which is the continuous-batching
	// window: a flushed-but-unclaimed padded batch can still trade pad rows
	// for late riders.
	mu     sync.Mutex
	sealed bool
}

// admitRider swaps one pad row of a flushed-but-unsealed batch for a late
// request of the same tenant. Returns false once the batch is sealed (a
// worker owns it) or full of real rows; the caller then falls back to the
// pending queue.
func (b *vbatch) admitRider(r *request) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.sealed || len(b.reqs) >= len(b.images) {
		return false
	}
	b.images[len(b.reqs)] = r.image
	b.reqs = append(b.reqs, r)
	r.asp.End() // queueing over: the rider joined an in-flight batch
	r.sp.Annotate("admission", "continuous")
	return true
}

// sealAdmission closes the continuous-admission window: the worker that
// picked the batch up owns its rows from here on. The mutex pairs with
// admitRider, so rows admitted before the seal are visible to the worker.
func (b *vbatch) sealAdmission() {
	b.mu.Lock()
	b.sealed = true
	b.mu.Unlock()
}

// leaderSpan returns the root span of the batch's first sampled rider —
// the one trace that carries the batch subtree (annotating every sampled
// rider would double-count the shared work). Nil when none is sampled.
func (b *vbatch) leaderSpan() *obs.Span {
	for _, r := range b.reqs {
		if r.sp != nil {
			return r.sp
		}
	}
	return nil
}

func (b *vbatch) fail(err error) {
	for _, r := range b.reqs {
		r.done <- result{err: err}
	}
}

// batchLoop is the dynamic batcher: it coalesces admitted requests into
// per-tenant virtual batches of exactly K — tenants are never coded
// together, so each batch maps to one fair-share account — flushing a
// tenant early, padded with dummy rows, when the earliest batching
// deadline among its pending requests expires. It owns all batching state;
// no locks needed.
func (s *Server) batchLoop() {
	defer s.wg.Done()
	defer close(s.batches)

	// Dummy rows are drawn fresh per flush: uniform noise, exactly like the
	// M noise rows the masking code mixes in, so a padded batch is
	// indistinguishable from a full one at the GPUs.
	rng := rand.New(rand.NewSource(s.cfg.Sched.Seed + 0x5eed))

	pending := map[string][]*request{}
	// open tracks each tenant's most recent padded batch that may still be
	// waiting for a worker: the continuous-batching admission targets
	// (Config.Continuous). Entries are dropped lazily when an admission
	// finds the batch sealed or full.
	open := map[string]*vbatch{}
	timer := time.NewTimer(time.Hour)
	timer.Stop()
	timerSet := false

	stopTimer := func() {
		if timerSet && !timer.Stop() {
			select { // drain a fire that raced the flush
			case <-timer.C:
			default:
			}
		}
		timerSet = false
	}

	flush := func(tenant string) {
		reqs := pending[tenant]
		if len(reqs) == 0 {
			return
		}
		delete(pending, tenant)
		b := &vbatch{tenant: tenant, reqs: reqs, images: make([][]float64, s.k)}
		for i, r := range reqs {
			b.images[i] = r.image
			r.asp.End() // queueing over: the request is leaving the batcher
		}
		b.seal = b.leaderSpan().Child("seal")
		if b.seal != nil {
			b.seal.Annotatef("rows", "%d/%d", len(reqs), s.k)
		}
		for i := len(reqs); i < s.k; i++ {
			dummy := make([]float64, s.imgLen)
			for j := range dummy {
				dummy[j] = rng.Float64()
			}
			b.images[i] = dummy
		}
		s.metrics.depth.Add(-float64(len(reqs)))
		s.batches <- b
		if s.cfg.Continuous && len(reqs) < s.k {
			open[tenant] = b
		}
	}

	// flushDue flushes every tenant whose earliest deadline has passed.
	flushDue := func(now time.Time) {
		for tenant, reqs := range pending {
			due := false
			for _, r := range reqs {
				if !now.Before(r.flushBy) {
					due = true
					break
				}
			}
			if due {
				flush(tenant)
			}
		}
	}

	// rearm points the timer at the earliest deadline across all tenants.
	rearm := func() {
		stopTimer()
		var earliest time.Time
		for _, reqs := range pending {
			for _, r := range reqs {
				if earliest.IsZero() || r.flushBy.Before(earliest) {
					earliest = r.flushBy
				}
			}
		}
		if earliest.IsZero() {
			return
		}
		timer.Reset(time.Until(earliest))
		timerSet = true
	}

	for {
		select {
		case r, ok := <-s.admit:
			if !ok {
				for tenant := range pending {
					flush(tenant) // final partial batches drain on Close
				}
				return
			}
			// Continuous batching: before queueing for a fresh batch, try to
			// ride the tenant's last padded batch if no worker has sealed it
			// yet — the rider replaces a pad row at the next block boundary
			// instead of waiting out a whole new batch.
			if b, ok := open[r.tenant]; ok {
				if b.admitRider(r) {
					s.metrics.depth.Add(-1)
					s.metrics.continuous.Inc()
					rearm()
					continue
				}
				delete(open, r.tenant) // sealed or full: no longer a target
			}
			pending[r.tenant] = append(pending[r.tenant], r)
			if len(pending[r.tenant]) == s.k {
				stopTimer()
				flush(r.tenant)
			}
			rearm()
		case <-timer.C:
			timerSet = false
			flushDue(time.Now())
			rearm()
		}
	}
}
