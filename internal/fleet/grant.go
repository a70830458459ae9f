package fleet

import (
	"fmt"
	"slices"
	"sync"
	"time"

	"darknight/internal/field"
	"darknight/internal/gpu"
	"darknight/internal/obs"
)

// Grant is temporary exclusive ownership of a device gang. It implements
// the runtime's Fleet surface (Size/BeginBlock), records per-device outcomes
// of the flights opened on it (latency, stragglers, faults) and folds them
// into the health tracker on Release.
type Grant struct {
	m     *Manager
	t     *tenant
	ids   []int // cluster indices, slot i serves coded input i
	devs  []gpu.Device
	start time.Time
	once  sync.Once

	mu        sync.Mutex
	latSum    []time.Duration
	latN      []int64
	straggles []int
	faulted   []bool
	suspect   bool
	specCount int64

	// A pipelined engine holds several flights open on one gang at once, so
	// the grant counts them (and waits for them to end on Release before the
	// devices go back to the pool).
	open     sync.WaitGroup
	openNow  int   // flights currently open
	openPeak int   // high-water mark of openNow over the grant's life
	flights  int64 // lifetime flights opened
	// hooks wires every flight on this gang to the accounting above.
	hooks gpu.BlockOptions
}

func newGrant(m *Manager, t *tenant, ids []int) *Grant {
	devs := make([]gpu.Device, len(ids))
	for i, idx := range ids {
		devs[i] = m.cluster.Device(idx)
	}
	g := &Grant{
		m:         m,
		t:         t,
		ids:       ids,
		devs:      devs,
		start:     time.Now(),
		latSum:    make([]time.Duration, len(ids)),
		latN:      make([]int64, len(ids)),
		straggles: make([]int, len(ids)),
		faulted:   make([]bool, len(ids)),
	}
	g.hooks = gpu.BlockOptions{
		Observe:        g.record,
		Straggler:      g.straggle,
		Spare:          g.spare,
		SpeculateAfter: m.cfg.SpeculateAfter,
		OnEnd:          g.endFlight,
	}
	return g
}

// Size returns the gang size.
func (g *Grant) Size() int { return len(g.ids) }

// DeviceIDs returns the physical device IDs backing the gang slots.
func (g *Grant) DeviceIDs() []int {
	out := make([]int, len(g.devs))
	for i, d := range g.devs {
		out[i] = d.ID()
	}
	return out
}

// Slots returns the cluster slot indices of the gang in coding order
// (slot i serves coded input i) — the identity the snapshot batch log
// records so replay can re-acquire exactly this gang.
func (g *Grant) Slots() []int { return append([]int(nil), g.ids...) }

// record accumulates one device response latency.
func (g *Grant) record(slot int, lat time.Duration) {
	g.mu.Lock()
	g.latSum[slot] += lat
	g.latN[slot]++
	g.mu.Unlock()
}

// straggle brands one slot absent from a quorum gather.
func (g *Grant) straggle(slot int) {
	g.mu.Lock()
	g.straggles[slot]++
	g.mu.Unlock()
}

// BeginBlock opens a gang flight on the first n slots of the grant — the
// only way the grant's devices are reached. Every job's response latency
// feeds the health EWMA, slots a quorum gather returned without are
// branded stragglers, and — when the manager's SpeculateAfter window is
// set — a forward layer's lagging share is re-dispatched to a borrowed
// spare device inside the gather, the answer due first winning. What a
// batch's devices keep between its passes belongs to its flight, and
// Release waits for the flight, so no later gang reaches it.
//
// Bookkeeping is per flight, not per layer: a virtual batch's flight counts
// once toward Stats.AsyncDispatches and PeakOverlap, however many layers it
// carries. The caller must End the flight before Release; Release waits
// for every open flight to end, and End has observed the latency of every
// answer a quorum decoded around.
func (g *Grant) BeginBlock(n int) (*gpu.BlockFlight, error) {
	if n > len(g.devs) {
		return nil, fmt.Errorf("fleet: flight of %d slots for gang of %d", n, len(g.devs))
	}
	g.open.Add(1)
	g.mu.Lock()
	g.openNow++
	if g.openNow > g.openPeak {
		g.openPeak = g.openNow
	}
	g.flights++
	g.mu.Unlock()
	return gpu.NewBlockFlight(g.devs[:n], g.hooks), nil
}

// endFlight retires one open flight.
func (g *Grant) endFlight() {
	g.mu.Lock()
	g.openNow--
	g.mu.Unlock()
	g.open.Done()
}

// spare borrows a free device outside the gang for one speculative job.
func (g *Grant) spare(slot int) (gpu.Device, func(time.Duration), bool) {
	rec, dev, ok := g.m.borrowSpare()
	if !ok {
		return nil, nil, false
	}
	g.mu.Lock()
	g.specCount++
	g.mu.Unlock()
	g.m.recordEvent(obs.Event{Kind: obs.KindSpeculate, Subsystem: "fleet", Device: dev.ID(), Slot: slot,
		Tenant: g.t.name, Detail: fmt.Sprintf("lagging share re-dispatched to spare after %s", g.m.cfg.SpeculateAfter)})
	return dev, func(lat time.Duration) { g.m.returnSpare(rec, lat) }, true
}

// ForwardQuorum ships one layer on a flight over the first len(coded) slots
// and returns as soon as quorum responses have arrived (quorum <= 0 or
// >= len(coded) waits for all), with the flight's presence mask: nil when
// every slot answered — copies of the flight's, which End takes back. The
// leading string is unused: it remains only because the benchmark harness
// under bench/ still passes it.
//
//lint:ignore testonly called by bench/benchkit; retarget in a benchmark PR (ROADMAP 1b/12)
func (g *Grant) ForwardQuorum(_ string, kernel gpu.LinearKernel, coded []field.Vec, quorum int) ([]field.Vec, []bool, error) {
	flight, err := g.BeginBlock(len(coded))
	if err != nil {
		return nil, nil, err
	}
	defer flight.End()
	p, err := flight.ForwardLayer("", kernel, coded)
	if err != nil {
		return nil, nil, err
	}
	results, present := p.WaitQuorum(quorum)
	return slices.Clone(results), slices.Clone(present), nil
}

// ReportFaults marks gang slots attributed as tampering by the redundant
// decoding; on Release each marked device takes a full-threshold fault
// (immediate quarantine).
func (g *Grant) ReportFaults(slots []int) {
	g.mu.Lock()
	defer g.mu.Unlock()
	for _, s := range slots {
		if s >= 0 && s < len(g.faulted) {
			g.faulted[s] = true
		}
	}
}

// ReportSuspect marks the whole gang suspect: an integrity violation was
// detected but could not be attributed (E < 2). Every member's fault score
// rises by suspectScore on Release; the persistent offender accumulates
// suspicion across differently composed gangs until quarantined.
func (g *Grant) ReportSuspect() {
	g.mu.Lock()
	g.suspect = true
	g.mu.Unlock()
}

// Release returns the gang to the pool, folding the recorded outcomes into
// the health tracker and the tenant's share account. It first waits for
// every open flight to end, so devices never re-enter the free pool with a
// gather still aimed at them. Safe to call more than once.
func (g *Grant) Release() {
	g.once.Do(func() {
		g.open.Wait()
		g.m.release(g)
	})
}
