package fleet

import (
	"fmt"

	"darknight/internal/obs"
)

// SnapshotInto fills the fleet section of a state snapshot under one
// lock hold, so the capture is internally consistent: the leased-device
// count it reports matches the per-tenant in-flight occupancy plus
// borrowed speculation spares at the same instant.
func (m *Manager) SnapshotInto(fi *obs.FleetInfo) {
	m.mu.Lock()
	defer m.mu.Unlock()
	fi.Config = obs.FleetConfigInfo{
		FaultThreshold:       faultThreshold,
		ProbationProbability: m.cfg.ProbationProbability,
		SpeculateAfterNs:     int64(m.cfg.SpeculateAfter),
		Seed:                 m.cfg.Seed,
		Tenants:              make(map[string]float64, len(m.names)),
	}
	fi.Devices = make([]obs.DeviceInfo, 0, len(m.devs))
	leased := 0
	for _, rec := range m.devs {
		if rec.leased {
			leased++
		}
		fi.Devices = append(fi.Devices, obs.DeviceInfo{
			Index:       rec.idx,
			ID:          rec.id,
			State:       rec.state.String(),
			Leased:      rec.leased,
			FaultScore:  rec.faultScore,
			CleanStreak: rec.cleanStreak,
			EWMANs:      int64(rec.ewma),
			Generation:  rec.gen,
			Dispatches:  rec.dispatches,
			Faults:      rec.faults,
			Stragglers:  rec.stragglers,
			Quarantines: rec.quarantines,
		})
	}
	fi.Tenants = make([]obs.TenantInfo, 0, len(m.names))
	for _, name := range m.names {
		t := m.tenants[name]
		fi.Config.Tenants[name] = t.weight
		fi.Tenants = append(fi.Tenants, obs.TenantInfo{
			Name:          name,
			Weight:        t.weight,
			Queued:        len(t.queue),
			InFlight:      t.inFlight,
			Grants:        t.grants,
			DeviceSeconds: t.deviceSeconds,
		})
	}
	fi.LeasedDevices = leased
	fi.BorrowedSpares = m.borrowed
	fi.QuarantineEvents = m.quarantineEvents
	fi.Readmissions = m.readmissions
	fi.StragglerEvents = m.stragglerEvents
	fi.Speculations = m.speculations
	fi.SLOBreaches = m.sloBreaches
}

// ConfigFromSnapshot rebuilds a fleet configuration from a captured
// fleet section — the replay harness's entry point. Speculation is
// disabled (its timing-driven spare borrowing is additive and
// nondeterministic) and probation re-admission is turned off: replay
// gangs are scripted from the batch log, so probation can only inject
// timing-dependent readmit events, never change which devices serve.
func ConfigFromSnapshot(fc obs.FleetConfigInfo) Config {
	cfg := Config{ProbationProbability: -1, Seed: fc.Seed}
	for name, w := range fc.Tenants {
		cfg.Tenants = append(cfg.Tenants, TenantConfig{Name: name, Weight: w})
	}
	return cfg
}

// AcquireSlots grants the named tenant exactly the given cluster slots,
// bypassing fair-share arbitration and the free-pool health ordering.
// This is the replay harness's API: a captured batch records which slots
// its gang held, and replay must re-run it on the same slots even when a
// live scheduler would now pick differently (e.g. because the snapshot
// shows the device as quarantined — live granted it before the fault
// landed). It fails rather than waits if any slot is already leased.
func (m *Manager) AcquireSlots(tenantName string, slots []int) (*Grant, error) {
	if len(slots) == 0 {
		return nil, fmt.Errorf("fleet: empty slot list")
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	seen := make(map[int]bool, len(slots))
	for _, idx := range slots {
		if idx < 0 || idx >= len(m.devs) {
			return nil, fmt.Errorf("fleet: slot %d outside cluster of %d", idx, len(m.devs))
		}
		if seen[idx] {
			return nil, fmt.Errorf("fleet: slot %d listed twice", idx)
		}
		seen[idx] = true
		if m.devs[idx].leased {
			return nil, fmt.Errorf("fleet: slot %d already leased", idx)
		}
	}
	t := m.tenantLocked(tenantName, 0)
	ids := append([]int(nil), slots...)
	for _, idx := range ids {
		m.removeFreeLocked(idx)
		m.devs[idx].leased = true
	}
	t.inFlight += len(ids)
	t.grants++
	if m.rec != nil {
		m.rec.Record(obs.Event{Kind: obs.KindGrant, Subsystem: "fleet", Device: -1, Slot: -1,
			Tenant: t.name, Detail: fmt.Sprintf("gang of %d, cluster slots %v (replay)", len(ids), ids)})
	}
	return newGrant(m, t, ids), nil
}

// SubscribeSLO wires an SLO tracker's breach hook into the fleet: every
// burn-rate threshold crossing is recorded in the flight recorder and
// counted, making SLO pressure visible next to the quarantine and
// straggler events it usually correlates with. Nil-safe.
func (m *Manager) SubscribeSLO(t *obs.SLOTracker) {
	if m == nil || t == nil {
		return
	}
	t.OnBreach(func(b obs.Breach) {
		m.mu.Lock()
		if !b.Cleared {
			m.sloBreaches++
		}
		rec := m.rec
		m.mu.Unlock()
		state := "breached"
		if b.Cleared {
			state = "cleared"
		}
		rec.Record(obs.Event{Kind: obs.KindSLOBreach, Subsystem: "fleet", Device: -1, Slot: -1,
			Tenant: b.Tenant, Detail: fmt.Sprintf("%s SLO %s over %s: burn %.2f", b.SLO, state, b.Window, b.Burn)})
	})
}
