package fleet

import (
	"sort"
	"time"
)

// DeviceHealth is one device's health snapshot.
type DeviceHealth struct {
	ID          int
	Fingerprint uint64
	Generation  int
	State       State
	Leased      bool
	FaultScore  float64
	// EWMALatency is the smoothed per-offload response latency.
	EWMALatency time.Duration
	Dispatches  int64
	Faults      int64
	Stragglers  int64
	Quarantines int64
}

// TenantUsage is one tenant's share-account snapshot.
type TenantUsage struct {
	Name   string
	Weight float64
	// Queued is the number of gang acquisitions currently waiting.
	Queued int
	// InFlight is the number of devices currently granted.
	InFlight int
	// Grants is the lifetime gang count.
	Grants int64
	// DeviceSeconds is the lifetime device-time consumed.
	DeviceSeconds float64
	// Share is DeviceSeconds normalized by weight — the quantity the
	// fair-share policy equalizes under contention.
	Share float64
}

// Stats is a consistent snapshot of the fleet state.
type Stats struct {
	// Healthy/OnProbation/Quarantined partition the device population.
	Healthy, OnProbation, Quarantined int
	// QuarantineEvents counts lifetime quarantine transitions;
	// Readmissions counts probation re-admissions.
	QuarantineEvents, Readmissions int64
	// StragglerEvents counts device responses that missed their dispatch
	// quorum; Speculations counts coded shares re-dispatched to spares.
	StragglerEvents, Speculations int64
	// SLOBreaches counts burn-rate threshold crossings delivered to the
	// fleet via SubscribeSLO (rising edges only).
	SLOBreaches int64
	// AsyncDispatches counts the gang flights opened across all released
	// grants (a virtual batch is one flight); PeakOverlap is the largest number
	// of flights any single grant had open at once — > 1 means a pipelined
	// engine genuinely kept multiple coded batches in flight on one gang.
	AsyncDispatches int64
	PeakOverlap     int
	// Devices holds per-device health, ordered by device ID.
	Devices []DeviceHealth
	// Tenants holds per-tenant usage, ordered by name.
	Tenants []TenantUsage
	// Events is the recent quarantine/probation transition log, oldest
	// first (bounded window).
	Events []Event
}

// Stats returns a consistent snapshot of device health, tenant shares and
// the quarantine event log.
func (m *Manager) Stats() Stats {
	m.mu.Lock()
	defer m.mu.Unlock()
	s := Stats{
		QuarantineEvents: m.quarantineEvents,
		Readmissions:     m.readmissions,
		StragglerEvents:  m.stragglerEvents,
		Speculations:     m.speculations,
		SLOBreaches:      m.sloBreaches,
		AsyncDispatches:  m.asyncDispatches,
		PeakOverlap:      m.peakOverlap,
		Devices:          make([]DeviceHealth, 0, len(m.devs)),
		Tenants:          make([]TenantUsage, 0, len(m.tenants)),
		Events:           append([]Event(nil), m.events...),
	}
	for _, rec := range m.devs {
		switch rec.state {
		case Healthy:
			s.Healthy++
		case Probation:
			s.OnProbation++
		case Quarantined:
			s.Quarantined++
		}
		s.Devices = append(s.Devices, DeviceHealth{
			ID:          rec.id,
			Fingerprint: rec.fp,
			Generation:  rec.gen,
			State:       rec.state,
			Leased:      rec.leased,
			FaultScore:  rec.faultScore,
			EWMALatency: rec.ewma,
			Dispatches:  rec.dispatches,
			Faults:      rec.faults,
			Stragglers:  rec.stragglers,
			Quarantines: rec.quarantines,
		})
	}
	sort.Slice(s.Devices, func(i, j int) bool { return s.Devices[i].ID < s.Devices[j].ID })
	for _, name := range m.names {
		t := m.tenants[name]
		s.Tenants = append(s.Tenants, TenantUsage{
			Name:          t.name,
			Weight:        t.weight,
			Queued:        len(t.queue),
			InFlight:      t.inFlight,
			Grants:        t.grants,
			DeviceSeconds: t.deviceSeconds,
			Share:         t.historicalShare(),
		})
	}
	sort.Slice(s.Tenants, func(i, j int) bool { return s.Tenants[i].Name < s.Tenants[j].Name })
	return s
}
