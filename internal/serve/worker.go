package serve

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"time"

	"darknight/internal/fleet"
	"darknight/internal/masking"
	"darknight/internal/obs"
	"darknight/internal/resil"
	"darknight/internal/sched"
)

// flight is one Submit of a batch: a gang, a lane of the worker's pipeline
// (behind the ticket) and, once it has landed, how long it flew.
type flight struct {
	grant  *fleet.Grant
	tk     *sched.Ticket
	sp     *obs.Span // a hedge's own span; nil on a primary, which hangs off the batch span
	since  time.Time
	lat    time.Duration
	landed bool
}

// job is one admitted batch on its way to an answer: the flights of its
// current attempt and the one timer it may have armed.
type job struct {
	b        *vbatch
	bsp      *obs.Span // the batch span, closed when the job leaves the worker
	gsp      *obs.Span // the open "grant" span of an attempt still waiting for a gang
	deadline time.Time
	attempt  int // re-dispatches so far (0 = the original flight)
	// flights are the current attempt's: [0] the primary and, if the hedge
	// policy fired, [1] its duplicate. Empty between attempts.
	flights []flight
	// at, when non-zero, is the job's armed timer: the hedge trigger while
	// its primary flies alone, the end of its retry backoff while nothing
	// flies.
	at time.Time
	// winner is the flight whose answer the clients got, -1 before.
	winner int
}

// worker is one serving worker: a sched.Pipeline over a private model
// replica and the batches it has admitted into it. Each batch flies under
// its own gang — K+M+E devices acquired atomically, all or none, under the
// batch tenant's fair-share account — so while one batch's coded shares are
// on the devices the TEE encodes the next and decodes the previous one;
// depth 1 is the serial worker. Padding rows are decoded like any other row
// and dropped.
//
// The worker's goroutine is the only one that submits to the pipeline and
// the only one that retires what it submitted, so it always knows how many
// lanes are taken and never calls Submit without a free one (Submit would
// block, and nothing else could unblock it). It therefore never blocks on
// anything but its select — with one exception: for a gang, when nothing of
// its own is in flight (then no gang of its own could be what it is waiting
// for).
//
// Two policies act on a batch's flights. Hedge: a primary still flying at
// the HedgeGovernor delay is duplicated on the worker's spare lane under a
// TryAcquire'd gang; the first clean answer is delivered, two clean answers
// are cross-verified. Retry: when every flight of an attempt has landed
// without an answer, the batch flies again after its backoff — a timer in
// the same select — on a fresh gang (quarantine has removed attributed
// culprits in between), while the retry and deadline budgets last.
//
// The worker is also the fleet's sensor. Every flight is settled in the
// order log → report → release: the batch log entry precedes the release so
// per-device log order equals dispatch order (the replay invariant), and
// the integrity verdict (sched.ReportOutcome) must reach the grant before
// the release folds it into device health.
type worker struct {
	s    *Server
	p    *sched.Pipeline
	gang int
	// jobs are the admitted batches in admission order, at most effDepth.
	jobs []*job
	// flying counts flights submitted and not yet settled; hedging is set
	// while one of them is a hedge. The pipeline has one lane per admitted
	// batch plus, on a hedging server, one spare: with one primary per job
	// and one hedge per worker, a lane is always free for the next Submit.
	flying  int
	hedging bool
	// landed carries one token per flight whose ticket has completed — a
	// single channel to select on whichever flight finishes first, so a
	// fast batch is never parked behind a slow older one. Buffered for
	// every lane, so the ticket watchers never block.
	landed chan struct{}
}

func (s *Server) runWorker(p *sched.Pipeline) {
	defer s.wg.Done()
	w := &worker{s: s, p: p, gang: p.Gang(), landed: make(chan struct{}, p.Depth())}
	timer := time.NewTimer(time.Hour)
	timer.Stop()
	batches := s.batches
	for batches != nil || len(w.jobs) > 0 {
		w.launchWaiting()
		admit := batches
		if len(w.jobs) >= s.effDepth() {
			admit = nil // full (or brownout-capped): retire before admitting more
		}
		var due <-chan time.Time
		if at := w.nextTimer(); !at.IsZero() {
			timer.Reset(time.Until(at))
			due = timer.C
		}
		select {
		case b, ok := <-admit:
			if !ok {
				batches = nil // closing: drain what is admitted, then exit
			} else {
				w.admit(b)
			}
		case <-w.landed:
			w.land()
		case <-due:
			due = nil
			w.fire(time.Now())
		}
		if due != nil && !timer.Stop() {
			select { // drain a fire that raced the other arm
			case <-timer.C:
			default:
			}
		}
	}
}

// admit takes ownership of a batch: it seals continuous admission, prunes
// riders that expired in the queue, and queues the rest for a first flight.
func (w *worker) admit(b *vbatch) {
	b.sealAdmission() // continuous riders stop here; the rows are ours
	b.seal.End()      // handoff complete: a worker owns the batch now
	if w.s.pruneExpired(b, time.Now()) == 0 {
		return // every rider expired; nothing left to dispatch
	}
	bsp := b.leaderSpan().Child("batch")
	if bsp != nil {
		bsp.Annotate("tenant", b.tenant)
		bsp.Annotatef("rows", "%d/%d", len(b.reqs), w.s.k)
	}
	w.jobs = append(w.jobs, &job{b: b, bsp: bsp, deadline: batchDeadline(b), winner: -1})
}

// pruneExpired expels requests whose end-to-end deadline has already
// passed: each is answered with the typed resil.ErrDeadline now, and its
// image slot becomes a de-facto pad row (still coded, output dropped), so
// the survivors' row pairing is preserved. Returns the live row count.
func (s *Server) pruneExpired(b *vbatch, now time.Time) int {
	n := len(b.reqs)
	expired := 0
	for i := 0; i < n; {
		r := b.reqs[i]
		if r.deadline.IsZero() || now.Before(r.deadline) {
			i++
			continue
		}
		r.sp.Annotate("outcome", "deadline-before-dispatch")
		r.done <- result{err: resil.ErrDeadline}
		n--
		expired++
		b.reqs[i] = b.reqs[n]
		b.images[i], b.images[n] = b.images[n], b.images[i]
	}
	if expired > 0 {
		b.reqs = b.reqs[:n]
		s.rcount.Deadline.Add(int64(expired))
		// They leave the batch, so finished never sees them: count them here.
		s.metrics.requests.With(b.tenant, "failed").Add(int64(expired))
		s.recordResil(obs.KindRetry, b.tenant,
			fmt.Sprintf("pruned %d deadline-expired rows before dispatch", expired))
	}
	return n
}

// batchDeadline is the dispatch budget of a batch: the latest deadline
// among its rows — the batch keeps running while any rider can still use
// the answer. One unbounded rider unbounds the batch.
func batchDeadline(b *vbatch) time.Time {
	var d time.Time
	for _, r := range b.reqs {
		if r.deadline.IsZero() {
			return time.Time{}
		}
		if r.deadline.After(d) {
			d = r.deadline
		}
	}
	return d
}

// launchWaiting gives a primary flight to every job that has nothing in
// the air and no backoff to sit out — first attempts and retries alike. A
// job the fleet has no gang for right now keeps waiting; the next landing
// (which frees a gang of this worker's) brings the loop back here.
func (w *worker) launchWaiting() {
	for i := 0; i < len(w.jobs); {
		j := w.jobs[i]
		if len(j.flights) == 0 && j.at.IsZero() {
			if err := w.launch(j); err != nil {
				w.attemptOver(j, err)
			}
		}
		if i < len(w.jobs) && w.jobs[i] == j {
			i++ // still admitted (a terminal failure removes it)
		}
	}
}

// launch acquires a gang for j and submits its primary flight, arming the
// hedge trigger. A nil return with no flight means no gang was free.
func (w *worker) launch(j *job) error {
	if j.gsp == nil {
		j.gsp = j.bsp.Child("grant")
	}
	grant, err := w.acquire(j)
	if grant == nil && err == nil {
		return nil
	}
	j.gsp.End()
	j.gsp = nil
	if err != nil {
		return err
	}
	if j.bsp != nil {
		j.bsp.Annotatef("gang", "%v", grant.DeviceIDs())
	}
	if err := w.submit(j, grant, nil); err != nil {
		return err
	}
	if delay, ok := w.s.hedge.Delay(); ok {
		j.at = time.Now().Add(delay)
	}
	return nil
}

// acquire gets a gang without deadlocking on a tight pool: blocking for
// devices while this worker still holds the gangs of unsettled flights
// could wait forever (only this goroutine releases them), so it blocks —
// within the deadline budget — only when nothing is in flight, and
// otherwise tries once, degrading gracefully toward serial execution
// exactly when the fleet cannot support the overlap.
func (w *worker) acquire(j *job) (*fleet.Grant, error) {
	if w.flying > 0 {
		return w.s.fleet.TryAcquire(j.b.tenant, w.gang)
	}
	ctx := context.Background()
	if !j.deadline.IsZero() {
		var cancel context.CancelFunc
		ctx, cancel = context.WithDeadline(ctx, j.deadline)
		defer cancel()
	}
	grant, err := w.s.fleet.Acquire(ctx, j.b.tenant, w.gang)
	if err != nil && ctx.Err() != nil {
		return nil, fmt.Errorf("gang wait outlived the deadline budget: %w", context.DeadlineExceeded)
	}
	return grant, err
}

// submit puts one flight of j in the air on grant (see worker for why a
// lane is free). sp is a hedge's span; a primary traces under the batch's.
func (w *worker) submit(j *job, grant *fleet.Grant, sp *obs.Span) error {
	under := sp
	if under == nil {
		under = j.bsp
	}
	tk, err := w.p.SubmitWithin(grant, j.b.images, under, j.deadline)
	if err != nil {
		grant.Release()
		return err
	}
	j.flights = append(j.flights, flight{grant: grant, tk: tk, sp: sp, since: time.Now()})
	w.flying++
	go func() {
		<-tk.Done()
		w.landed <- struct{}{}
	}()
	return nil
}

// nextTimer returns the earliest armed timer among the jobs (zero = none).
func (w *worker) nextTimer() time.Time {
	var at time.Time
	for _, j := range w.jobs {
		if !j.at.IsZero() && (at.IsZero() || j.at.Before(at)) {
			at = j.at
		}
	}
	return at
}

// fire runs out every timer that is due: a backoff that ends leaves its
// job for launchWaiting; a hedge trigger whose primary is still flying
// duplicates it.
func (w *worker) fire(now time.Time) {
	for _, j := range w.jobs {
		if j.at.IsZero() || now.Before(j.at) {
			continue
		}
		j.at = time.Time{}
		if len(j.flights) == 1 {
			w.hedge(j)
		}
	}
}

// hedge duplicates j's slow primary on spare capacity: the worker's spare
// lane and a gang nobody is queueing for (TryAcquire — a hedge never waits
// and never competes with primary traffic). The duplicate shares the
// primary's model replica — TEE work is serialised by the token whichever
// lane does it — and differs only in what a lane owns: seed stride,
// keyspace, arena.
func (w *worker) hedge(j *job) {
	if w.hedging {
		return
	}
	grant, err := w.s.fleet.TryAcquire(j.b.tenant, w.gang)
	if err != nil || grant == nil {
		return
	}
	ids := grant.DeviceIDs()
	hsp := j.bsp.Child("hedge")
	if w.submit(j, grant, hsp) != nil {
		hsp.End()
		return
	}
	w.hedging = true
	w.s.rcount.Hedges.Add(1)
	w.s.recordResil(obs.KindHedge, j.b.tenant,
		fmt.Sprintf("primary past the hedge trigger (%v in flight); duplicate flight on gang %v",
			time.Since(j.flights[0].since), ids))
}

// land consumes one completion token: it finds a flight whose ticket is
// done — one must exist, tokens are only minted for flights in the air —
// delivers its answer if it is the batch's first clean one, and settles the
// attempt once all its flights are down.
func (w *worker) land() {
	for _, j := range w.jobs {
		for i := range j.flights {
			f := &j.flights[i]
			if f.landed {
				continue
			}
			select {
			case <-f.tk.Done():
			default:
				continue
			}
			f.landed = true
			f.lat = time.Since(f.since)
			if i == 0 {
				w.s.hedge.Observe(f.lat)
				j.at = time.Time{} // the primary is down: nothing left to hedge
			}
			if j.winner < 0 && f.tk.Wait() == nil {
				j.winner = i
				w.deliver(j, f.tk.Classes())
			}
			if j.flights[0].landed && j.flights[len(j.flights)-1].landed {
				w.settle(j)
			}
			return
		}
	}
}

// deliver closes the batch's metrics accounting and answers every rider —
// in that order, so a client never reads counters that lag its own answer.
func (w *worker) deliver(j *job, preds []int) {
	if j.attempt > 0 {
		w.s.rcount.RetrySuccess.Add(1)
		w.s.recordResil(obs.KindRetry, j.b.tenant, fmt.Sprintf("retry %d succeeded", j.attempt))
	}
	w.s.metrics.finished(j.b, time.Now(), nil)
	for i, r := range j.b.reqs {
		r.done <- result{class: preds[i]}
	}
}

// settle closes an attempt whose flights have all landed: the hedge verdict,
// then log → report → release per flight, then either the job is done or
// the retry policy takes over. The winner's gang is held until the loser is
// down, because a failed cross-verification must reach both gangs.
func (w *worker) settle(j *job) {
	s := w.s
	primary := j.flights[0]
	if len(j.flights) == 2 {
		hedge := j.flights[1]
		// When both flights decoded cleanly they must be bit-identical —
		// the decode is exact over F_p, so any divergence means an
		// undetected fault; count it and suspect both gangs.
		if primary.tk.Wait() == nil && hedge.tk.Wait() == nil &&
			!slices.Equal(primary.tk.Classes(), hedge.tk.Classes()) {
			s.rcount.HedgeMismatch.Add(1)
			s.recordResil(obs.KindHedge, j.b.tenant, "cross-verify FAILED: primary and hedge disagree")
			primary.grant.ReportSuspect()
			hedge.grant.ReportSuspect()
		}
		if j.winner == 1 {
			s.rcount.HedgeWins.Add(1)
			s.recordResil(obs.KindHedge, j.b.tenant, fmt.Sprintf("hedge won by %v", primary.lat-hedge.lat))
		} else {
			s.rcount.HedgeLosses.Add(1)
		}
		w.hedging = false
	}
	for _, f := range j.flights {
		err := f.tk.Wait()
		s.logBatch(j.b, f.grant.Slots(), f.tk.Classes(), f.tk.Culprits(), err)
		sched.ReportOutcome(f.grant, f.tk.Culprits(), err)
		f.grant.Release()
		f.sp.End()
	}
	w.flying -= len(j.flights)
	j.flights = j.flights[:0]
	if j.winner >= 0 {
		w.drop(j)
		return
	}
	w.attemptOver(j, primary.tk.Wait())
}

// attemptOver is the retry policy: an attempt ended without an answer —
// no gang in time, a refused Submit, or every flight failed — and the batch
// either flies again after its backoff or fails for good.
func (w *worker) attemptOver(j *job, err error) {
	s := w.s
	now := time.Now()
	expired := !j.deadline.IsZero() && !now.Before(j.deadline)
	if !resil.Retryable(err) || j.attempt >= s.resil.Retry.Max || expired {
		w.fail(j, err)
		return
	}
	j.attempt++
	s.rcount.Retries.Add(1)
	s.recordResil(obs.KindRetry, j.b.tenant,
		fmt.Sprintf("attempt %d failed (%v); re-dispatching on a fresh gang", j.attempt, err))
	j.at = now.Add(s.resil.Retry.Backoff(j.attempt))
	if !j.deadline.IsZero() && j.at.After(j.deadline) {
		j.at = j.deadline
	}
}

// fail classifies a terminal failure for the clients — the deadline budget
// ran out, the retry budget ran out, or the error as it is — and closes the
// batch's span and metrics.
func (w *worker) fail(j *job, err error) {
	s := w.s
	final := err
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		final = resil.ErrDeadline
		s.rcount.Deadline.Add(int64(len(j.b.reqs)))
	case resil.Retryable(err) && s.resil.Retry.Max > 0 && j.attempt >= s.resil.Retry.Max:
		// Both are wrapped: a tamperer that outlasts every retry is still an
		// integrity failure to the client and to the counters.
		final = fmt.Errorf("%w: %d attempts, last: %w", resil.ErrRetriesExhausted, j.attempt+1, err)
		s.rcount.RetriesExhausted.Add(1)
	}
	j.bsp.Annotate("error", final.Error())
	s.metrics.finished(j.b, time.Now(), final)
	j.b.fail(final)
	w.drop(j)
}

// drop ends a job: answered or failed, it leaves the worker.
func (w *worker) drop(j *job) {
	j.gsp.End()
	j.bsp.End()
	w.jobs = slices.DeleteFunc(w.jobs, func(o *job) bool { return o == j })
}

// IsIntegrityError reports whether a per-request serving error was caused
// by tampered GPU results on the request's batch.
func IsIntegrityError(err error) bool { return errors.Is(err, masking.ErrIntegrity) }
