// Package fleet is the self-healing multi-tenant GPU fleet manager: the
// layer between the serving workers (internal/serve) and the physical
// device simulation (internal/gpu) that owns the device population over
// time. DarKnight's coded dispatch *detects* a tampering GPU through
// redundant decoding; this package acts on the detection so the fault does
// not recur:
//
//   - a health tracker scores every device from per-dispatch outcomes
//     (attributed integrity faults, latency EWMA, straggler counts) and
//     quarantines devices crossing a fault threshold, with probabilistic
//     probation re-admission so transient faults recover (health.go);
//   - a hash registry assigns every device admission a fingerprint, so
//     quarantine events and re-admissions have stable identities
//     (registry.go);
//   - a fair-share gang scheduler replaces raw FIFO lease blocking: named
//     tenants with weights, per-tenant queues, DRF-style share accounting,
//     and preemption-free but starvation-free all-or-none gang admission
//     (this file);
//   - grants dispatch with a straggler-tolerant quorum — the MDS property
//     makes the forward result decodable from any S of the S+E coded
//     responses — and can speculatively re-dispatch a lagging coded share
//     to a spare device (grant.go).
//
// This is the gang/fair-share model of cluster schedulers like NVIDIA's
// KAI, scaled down to one process, with the health machinery DarKnight's
// integrity detection makes possible.
package fleet

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"sync"
	"time"

	"darknight/internal/gpu"
	"darknight/internal/obs"
)

// TenantConfig pre-registers a named tenant with a fair-share weight.
type TenantConfig struct {
	Name string
	// Weight scales the tenant's fair share; a weight-2 tenant is entitled
	// to twice the device time of a weight-1 tenant under contention.
	// <= 0 selects 1.
	Weight float64
}

// Config tunes the fleet manager. The zero value is a sensible operating
// point; fields use 0 = default, negative = disabled where noted.
type Config struct {
	// Tenants pre-registers named tenants with weights. Tenants not listed
	// here are auto-registered at weight 1 on first use.
	Tenants []TenantConfig
	// FaultThreshold quarantines a device when its fault score reaches it.
	// An exactly-attributed integrity fault scores a full threshold
	// (immediate quarantine); unattributed gang-wide suspicion scores
	// SuspectScore. Default 1.0.
	FaultThreshold float64
	// SuspectScore is added to every gang member's fault score when an
	// integrity violation is detected but not attributable (E < 2). A
	// persistent offender accumulates suspicion across differently
	// composed gangs until it crosses the threshold. Default 0.4.
	SuspectScore float64
	// FaultDecay is the fraction of the fault score retained after a clean
	// dispatch, so transient suspicion bleeds off. Default 0.5.
	FaultDecay float64
	// ProbationProbability is the chance, per admission pass, that a
	// quarantined device is re-admitted on probation. Probation devices
	// serve normally but carry half-threshold fault scores — one more
	// attributed fault sends them straight back. Default 0.05; negative
	// disables re-admission (quarantine is then permanent).
	ProbationProbability float64
	// ProbationClean promotes a probation device back to healthy after
	// this many clean dispatches. Default 3.
	ProbationClean int
	// ProbationBackoff is the minimum quarantine dwell time before the
	// first re-admission draw; it doubles with every further quarantine of
	// the same device (capped at 64x), so a persistent offender re-tries at
	// exponentially sparser intervals instead of burning a recovered batch
	// every few milliseconds. Default 100ms.
	ProbationBackoff time.Duration
	// SpeculateAfter re-dispatches the coded share of a device that has
	// not answered within this duration to a borrowed spare device (first
	// response wins). 0 disables speculation. Speculation only engages on
	// forward layers gathered with a quorum below the gang size — in
	// DarKnight terms, when the pipeline runs with StragglerSlack >= 1 and
	// Redundancy >= 2 — on any layer of a batch's flight.
	SpeculateAfter time.Duration
	// Seed drives the probation re-admission draws, making fleet runs
	// reproducible.
	Seed int64
}

func (c Config) withDefaults() Config {
	if c.FaultThreshold == 0 {
		c.FaultThreshold = 1.0
	}
	if c.SuspectScore == 0 {
		c.SuspectScore = 0.4
	}
	if c.FaultDecay == 0 {
		c.FaultDecay = 0.5
	}
	if c.ProbationProbability == 0 {
		c.ProbationProbability = 0.05
	}
	if c.ProbationClean == 0 {
		c.ProbationClean = 3
	}
	if c.ProbationBackoff == 0 {
		c.ProbationBackoff = 100 * time.Millisecond
	}
	return c
}

// tenant is one named traffic source with its own queue and share account.
type tenant struct {
	name   string
	weight float64

	queue         []*waiter // FIFO within the tenant
	inFlight      int       // devices currently granted
	deviceSeconds float64   // lifetime device-time consumed
	grants        int64
}

// dominantShare is the tenant's current allocation normalized by weight —
// the DRF ordering key. Historical consumption breaks ties so bursty
// tenants do not permanently shade steady ones.
func (t *tenant) dominantShare() float64 { return float64(t.inFlight) / t.weight }

func (t *tenant) historicalShare() float64 { return t.deviceSeconds / t.weight }

// waiter is one blocked gang acquisition.
type waiter struct {
	n     int
	seq   int64
	ready chan grantResult
}

// grantResult is what an admission pass delivers to a waiter: a grant, or
// the verdict that the gang can never be satisfied.
type grantResult struct {
	g   *Grant
	err error
}

// ErrFleetShrunk is returned when permanent quarantines (probation
// disabled) have left fewer circulating devices than a gang needs.
var ErrFleetShrunk = fmt.Errorf("fleet: quarantines have permanently shrunk the pool below the gang size")

// Manager owns the device population: admission, health, quarantine and
// fair-share gang scheduling. All methods are safe for concurrent use.
type Manager struct {
	cfg     Config
	cluster *gpu.Cluster
	reg     *Registry

	mu       sync.Mutex
	devs     []*deviceRec
	free     []int // cluster indices free and in circulation
	tenants  map[string]*tenant
	names    []string // registration order, for deterministic iteration
	rng      *rand.Rand
	seq      int64 // waiter arrival counter
	events   []Event
	eventSeq int64

	quarantineEvents int64
	readmissions     int64
	stragglerEvents  int64
	speculations     int64
	asyncDispatches  int64
	peakOverlap      int
	borrowed         int   // devices currently out on speculative loans
	sloBreaches      int64 // SLO burn-rate crossings delivered via SubscribeSLO

	// rec, when non-nil, receives grant/release/quarantine/speculation
	// events (see SetObserver in obs.go).
	rec *obs.FlightRecorder
	// flightHist, when non-nil, receives each device's mean flight
	// latency at grant release (see RegisterMetrics).
	flightHist *obs.HistogramVec
}

// NewManager puts every device of the cluster under fleet management.
func NewManager(cluster *gpu.Cluster, cfg Config) *Manager {
	cfg = cfg.withDefaults()
	m := &Manager{
		cfg:     cfg,
		cluster: cluster,
		reg:     NewRegistry(),
		devs:    make([]*deviceRec, cluster.Size()),
		free:    make([]int, 0, cluster.Size()),
		tenants: make(map[string]*tenant),
		rng:     rand.New(rand.NewSource(cfg.Seed)),
	}
	for i := 0; i < cluster.Size(); i++ {
		rec := &deviceRec{idx: i, id: cluster.Device(i).ID()}
		rec.fp = m.reg.Register(rec.id, rec.gen)
		m.devs[i] = rec
		m.free = append(m.free, i)
	}
	for _, tc := range cfg.Tenants {
		m.tenantLocked(tc.Name, tc.Weight)
	}
	return m
}

// Cluster returns the managed physical cluster.
func (m *Manager) Cluster() *gpu.Cluster { return m.cluster }

// tenantLocked returns (registering if needed) the named tenant.
func (m *Manager) tenantLocked(name string, weight float64) *tenant {
	if t, ok := m.tenants[name]; ok {
		if weight > 0 {
			t.weight = weight
		}
		return t
	}
	if weight <= 0 {
		weight = 1
	}
	t := &tenant{name: name, weight: weight}
	m.tenants[name] = t
	m.names = append(m.names, name)
	return t
}

// Acquire blocks until the named tenant is granted n devices atomically —
// all or none, a gang — under fair-share arbitration, then returns the
// grant. Cancellation of ctx aborts the wait with ctx.Err(). Quarantined
// devices are outside the grantable pool; if quarantines shrink the pool
// below n, Acquire waits for probation re-admission to restore it.
func (m *Manager) Acquire(ctx context.Context, tenantName string, n int) (*Grant, error) {
	if n <= 0 {
		return nil, fmt.Errorf("fleet: gang size %d must be positive", n)
	}
	if n > m.cluster.Size() {
		return nil, fmt.Errorf("fleet: gang of %d devices can never fit fleet of %d", n, m.cluster.Size())
	}
	m.mu.Lock()
	t := m.tenantLocked(tenantName, 0)
	m.seq++
	w := &waiter{n: n, seq: m.seq, ready: make(chan grantResult, 1)}
	t.queue = append(t.queue, w)
	m.admitLocked()
	m.mu.Unlock()

	// Uncontended fast path: the admission pass above usually granted
	// synchronously — no timer needed.
	select {
	case r := <-w.ready:
		return r.g, r.err
	default:
	}

	// Blocked waiters re-run admission periodically: releases drive the
	// normal wake path, but when quarantines have shrunk the pool below the
	// gang size nothing ever releases — only a fresh probation draw can
	// restore capacity, and draws happen on admission passes.
	retry := time.NewTicker(probationRetry)
	defer retry.Stop()
	for {
		select {
		case r := <-w.ready:
			return r.g, r.err
		case <-retry.C:
			m.mu.Lock()
			m.admitLocked()
			m.mu.Unlock()
		case <-ctx.Done():
			m.mu.Lock()
			// The grant may have raced the cancellation: if it already
			// landed, take it so it can be returned to the pool.
			var granted *Grant
			select {
			case r := <-w.ready:
				granted = r.g
			default:
				for i, q := range t.queue {
					if q == w {
						t.queue = append(t.queue[:i], t.queue[i+1:]...)
						break
					}
				}
			}
			m.mu.Unlock()
			if granted != nil {
				granted.Release()
			}
			return nil, ctx.Err()
		}
	}
}

// probationRetry is how often a blocked acquisition re-runs the admission
// pass (and thus the probation draw) when no release wakes it.
const probationRetry = 5 * time.Millisecond

// TryAcquire is the non-blocking Acquire: it runs one admission pass and
// returns the gang grant if it was satisfied immediately, or (nil, nil)
// when granting would have to wait. Share order is respected — the attempt
// queues behind earlier waiters and is withdrawn if not served, so
// TryAcquire can never jump the fair-share line. Pipelined workers use it
// to avoid deadlocking on a tight pool: rather than blocking for a second
// gang while holding completed-but-unreleased grants, they retire a batch
// and retry.
func (m *Manager) TryAcquire(tenantName string, n int) (*Grant, error) {
	if n <= 0 {
		return nil, fmt.Errorf("fleet: gang size %d must be positive", n)
	}
	if n > m.cluster.Size() {
		return nil, fmt.Errorf("fleet: gang of %d devices can never fit fleet of %d", n, m.cluster.Size())
	}
	m.mu.Lock()
	t := m.tenantLocked(tenantName, 0)
	m.seq++
	w := &waiter{n: n, seq: m.seq, ready: make(chan grantResult, 1)}
	t.queue = append(t.queue, w)
	m.admitLocked()
	var r grantResult
	granted := false
	select {
	case r = <-w.ready:
		granted = true
	default:
		for i, q := range t.queue {
			if q == w {
				t.queue = append(t.queue[:i], t.queue[i+1:]...)
				break
			}
		}
	}
	m.mu.Unlock()
	if !granted {
		return nil, nil
	}
	return r.g, r.err
}

// admitLocked is the fair-share admission pass: it first gives quarantined
// devices their probabilistic probation chance, then repeatedly grants the
// head-of-queue gang of the tenant with the lowest dominant share. Grants
// are preemption-free (never revoked) and admission is in strict share
// order — when the neediest tenant's gang does not fit the free pool yet,
// capacity accrues for it rather than being handed to a better-fitting
// tenant, which is what makes the policy starvation-free even when gang
// sizes differ (a head-of-line bypass would let small-gang tenants keep
// the pool permanently fragmented). Waiters whose gang can never be
// satisfied — permanent quarantines (probation disabled) have shrunk the
// circulating population below the gang size — fail with ErrFleetShrunk
// instead of blocking forever.
func (m *Manager) admitLocked() {
	// Probation draws happen only under demand: re-admission exists to
	// restore capacity someone is waiting for, not to rush a freshly
	// quarantined device back into an idle pool.
	if m.hasWaitersLocked() {
		m.probationLocked()
	}
	if m.cfg.ProbationProbability < 0 {
		m.failImpossibleLocked()
	}
	for {
		var best *tenant
		for _, name := range m.names {
			t := m.tenants[name]
			if len(t.queue) == 0 {
				continue
			}
			if best == nil || lessShare(t, best) {
				best = t
			}
		}
		if best == nil || best.queue[0].n > len(m.free) {
			return
		}
		w := best.queue[0]
		best.queue = best.queue[1:]
		ids := m.pickLocked(w.n)
		best.inFlight += w.n
		best.grants++
		if m.rec != nil {
			m.rec.Record(obs.Event{Kind: obs.KindGrant, Subsystem: "fleet", Device: -1, Slot: -1,
				Tenant: best.name, Detail: fmt.Sprintf("gang of %d, cluster slots %v", w.n, ids)})
		}
		w.ready <- grantResult{g: newGrant(m, best, ids)}
	}
}

// failImpossibleLocked delivers ErrFleetShrunk to every waiter whose gang
// exceeds the circulating (non-quarantined) device population — with
// probation disabled that capacity is never coming back.
func (m *Manager) failImpossibleLocked() {
	circulating := 0
	for _, rec := range m.devs {
		if rec.state != Quarantined {
			circulating++
		}
	}
	for _, name := range m.names {
		t := m.tenants[name]
		kept := t.queue[:0]
		for _, w := range t.queue {
			if w.n > circulating {
				w.ready <- grantResult{err: fmt.Errorf("%w: gang of %d, %d devices circulating", ErrFleetShrunk, w.n, circulating)}
				continue
			}
			kept = append(kept, w)
		}
		t.queue = kept
	}
}

func (m *Manager) hasWaitersLocked() bool {
	for _, t := range m.tenants {
		if len(t.queue) > 0 {
			return true
		}
	}
	return false
}

// lessShare orders tenants for admission: lowest current DRF share first,
// then lowest historical consumption, then earliest waiting request.
func lessShare(a, b *tenant) bool {
	if as, bs := a.dominantShare(), b.dominantShare(); as != bs {
		return as < bs
	}
	if ah, bh := a.historicalShare(), b.historicalShare(); ah != bh {
		return ah < bh
	}
	return a.queue[0].seq < b.queue[0].seq
}

// pickLocked removes and returns n devices from the free pool, best first:
// lowest straggle *rate* (every quorum return brands its slowest member,
// so healthy devices settle near the same modest rate while a chronically
// slow one misses nearly every quorum), then lowest latency EWMA. A
// straggler so slow its responses never land before release has no EWMA at
// all — the rate is what demotes it, letting spares absorb its share of
// the hot path.
func (m *Manager) pickLocked(n int) []int {
	rate := func(d *deviceRec) float64 {
		if d.dispatches == 0 {
			return 0
		}
		return float64(d.stragglers) / float64(d.dispatches)
	}
	sort.Slice(m.free, func(i, j int) bool {
		a, b := m.devs[m.free[i]], m.devs[m.free[j]]
		if ra, rb := rate(a), rate(b); ra != rb {
			return ra < rb
		}
		if a.ewma != b.ewma {
			return a.ewma < b.ewma
		}
		return a.idx < b.idx
	})
	ids := make([]int, n)
	copy(ids, m.free[:n])
	m.free = m.free[n:]
	for _, idx := range ids {
		m.devs[idx].leased = true
	}
	return ids
}

// release returns a grant's devices to the pool, folds its health
// observations into the tracker and charges the tenant's share account.
func (m *Manager) release(g *Grant) {
	elapsed := time.Since(g.start)
	g.mu.Lock()
	faulted := append([]bool(nil), g.faulted...)
	suspect := g.suspect
	latSum := append([]time.Duration(nil), g.latSum...)
	latN := append([]int64(nil), g.latN...)
	straggles := append([]int(nil), g.straggles...)
	specs := g.specCount
	flights := g.flights
	openPeak := g.openPeak
	g.mu.Unlock()

	m.mu.Lock()
	defer m.mu.Unlock()
	g.t.inFlight -= len(g.ids)
	g.t.deviceSeconds += elapsed.Seconds() * float64(len(g.ids))
	if m.rec != nil {
		nf := 0
		for _, f := range faulted {
			if f {
				nf++
			}
		}
		detail := fmt.Sprintf("held %s, %d flights", elapsed.Round(time.Microsecond), flights)
		if nf > 0 {
			detail += fmt.Sprintf(", %d attributed faults", nf)
		}
		if suspect {
			detail += ", gang-wide suspicion"
		}
		m.rec.Record(obs.Event{Kind: obs.KindRelease, Subsystem: "fleet", Device: -1, Slot: -1,
			Tenant: g.t.name, Detail: detail})
	}
	m.speculations += specs
	m.asyncDispatches += flights
	if openPeak > m.peakOverlap {
		m.peakOverlap = openPeak
	}
	for slot, idx := range g.ids {
		rec := m.devs[idx]
		rec.leased = false
		var mean time.Duration
		if latN[slot] > 0 {
			mean = latSum[slot] / time.Duration(latN[slot])
			m.flightHist.Observe(strconv.Itoa(rec.id), mean.Seconds())
		}
		switch {
		case faulted[slot]:
			m.reportFaultLocked(rec, true)
		case suspect:
			m.reportFaultLocked(rec, false)
		default:
			m.reportCleanLocked(rec, mean, straggles[slot])
		}
		if rec.state != Quarantined {
			m.free = append(m.free, idx)
		}
	}
	m.stragglerEventsAdd(straggles)
	m.admitLocked()
}

func (m *Manager) stragglerEventsAdd(straggles []int) {
	for _, s := range straggles {
		m.stragglerEvents += int64(s)
	}
}

// borrowSpare takes one free device out of the pool for a single
// speculative job. Returns false when the pool is empty — speculation is
// strictly best-effort and never waits.
func (m *Manager) borrowSpare() (*deviceRec, gpu.Device, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if len(m.free) == 0 {
		return nil, nil, false
	}
	ids := m.pickLocked(1)
	rec := m.devs[ids[0]]
	m.borrowed++
	return rec, m.cluster.Device(rec.idx), true
}

// returnSpare gives a borrowed device back and credits its latency.
func (m *Manager) returnSpare(rec *deviceRec, lat time.Duration) {
	m.mu.Lock()
	defer m.mu.Unlock()
	rec.leased = false
	m.borrowed--
	m.reportCleanLocked(rec, lat, 0)
	if rec.state != Quarantined {
		m.free = append(m.free, rec.idx)
	}
	m.admitLocked()
}
