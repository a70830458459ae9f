package fleet

import (
	"fmt"
	"time"

	"darknight/internal/obs"
)

// State is a device's position in the quarantine state machine:
//
//	Healthy ──fault score ≥ threshold──▶ Quarantined
//	   ▲                                      │
//	   │ probationClean clean dispatches      │ probabilistic re-admission
//	   │                                      ▼
//	   └──────────────────────────────── Probation
//	                 (one attributed fault: straight back to Quarantined)
//
// Healthy and Probation devices circulate in the grantable pool;
// Quarantined devices are withdrawn until the probation draw re-admits
// them under a fresh registry fingerprint.
type State int

const (
	Healthy State = iota
	Probation
	Quarantined
)

func (s State) String() string {
	switch s {
	case Healthy:
		return "healthy"
	case Probation:
		return "probation"
	case Quarantined:
		return "quarantined"
	}
	return "unknown"
}

// ewmaAlpha is the smoothing factor of the per-device latency EWMA.
const ewmaAlpha = 0.25

// The health scoring.
const (
	// faultThreshold quarantines a device when its fault score reaches it.
	// An exactly-attributed integrity fault scores a full threshold
	// (immediate quarantine); unattributed gang-wide suspicion scores
	// suspectScore.
	faultThreshold = 1.0
	// suspectScore is added to every gang member's fault score when an
	// integrity violation is detected but not attributed. A persistent
	// offender accumulates suspicion across differently composed gangs
	// until it crosses the threshold.
	suspectScore = 0.4
	// faultDecay is the fraction of the fault score retained after a clean
	// dispatch, so transient suspicion bleeds off.
	faultDecay = 0.5
	// probationClean promotes a probation device back to healthy after
	// this many clean dispatches.
	probationClean = 3
	// probationBackoff is the minimum quarantine dwell time before the
	// first re-admission draw; it doubles with every further quarantine of
	// the same device (capped at 64x), so a persistent offender re-tries at
	// exponentially sparser intervals instead of burning a recovered batch
	// every few milliseconds.
	probationBackoff = 100 * time.Millisecond
)

// deviceRec is the tracker's view of one physical device. All fields are
// guarded by Manager.mu.
type deviceRec struct {
	idx int // cluster index (gang slot source)
	id  int // gpu.Device.ID()
	gen int // admission generation; bumps on re-admission
	fp  uint64

	state         State
	leased        bool
	faultScore    float64
	cleanStreak   int
	ewma          time.Duration
	quarantinedAt time.Time // when the device last entered quarantine
	lastPick      int64     // Manager.picks when pickLocked last took the device

	dispatches  int64
	faults      int64
	stragglers  int64
	quarantines int64
}

// reportCleanLocked folds one clean dispatch outcome into a device's
// health: latency EWMA, straggler count, fault-score decay, and probation
// promotion.
func (m *Manager) reportCleanLocked(rec *deviceRec, mean time.Duration, straggles int) {
	rec.dispatches++
	rec.stragglers += int64(straggles)
	if mean > 0 {
		if rec.ewma == 0 {
			rec.ewma = mean
		} else {
			rec.ewma = time.Duration((1-ewmaAlpha)*float64(rec.ewma) + ewmaAlpha*float64(mean))
		}
	}
	rec.faultScore *= faultDecay
	rec.cleanStreak++
	if rec.state == Probation && rec.cleanStreak >= probationClean {
		m.transitionLocked(rec, Healthy, "probation served clean")
		rec.faultScore = 0
	}
}

// reportFaultLocked charges a device for an integrity violation. exact
// faults (attributed by the redundant decoding) score a full threshold —
// immediate quarantine; unattributed gang-wide suspicion accumulates until
// the threshold is crossed.
func (m *Manager) reportFaultLocked(rec *deviceRec, exact bool) {
	rec.dispatches++
	rec.faults++
	rec.cleanStreak = 0
	if exact {
		rec.faultScore += faultThreshold
	} else {
		rec.faultScore += suspectScore
	}
	if rec.faultScore >= faultThreshold && rec.state != Quarantined {
		reason := "suspicion accumulated past threshold"
		if exact {
			reason = "attributed integrity fault"
		}
		m.transitionLocked(rec, Quarantined, reason)
		rec.quarantines++
		rec.quarantinedAt = time.Now()
		m.quarantineEvents++
		m.removeFreeLocked(rec.idx)
	}
}

// probationLocked gives every quarantined, currently-unleased device its
// probabilistic chance at re-admission. Re-admitted devices return under a
// new registry fingerprint with a half-threshold fault score: one more
// attributed fault sends them straight back.
func (m *Manager) probationLocked() {
	if m.cfg.ProbationProbability < 0 {
		return
	}
	now := time.Now()
	for _, rec := range m.devs {
		if rec.state != Quarantined || rec.leased {
			continue
		}
		// Exponential dwell: each further quarantine of the same device
		// doubles the time before its next re-admission draw (capped).
		shift := rec.quarantines - 1
		if shift > 6 {
			shift = 6
		}
		if now.Sub(rec.quarantinedAt) < probationBackoff<<shift {
			continue
		}
		if m.rng.Float64() >= m.cfg.ProbationProbability {
			continue
		}
		rec.gen++
		rec.fp = m.reg.Register(rec.id, rec.gen)
		rec.faultScore = faultThreshold / 2
		rec.cleanStreak = 0
		m.transitionLocked(rec, Probation, "probabilistic re-admission")
		m.readmissions++
		m.free = append(m.free, rec.idx)
	}
}

// transitionLocked moves a device between states and logs the event.
func (m *Manager) transitionLocked(rec *deviceRec, to State, reason string) {
	from := rec.state
	rec.state = to
	m.eventSeq++
	ev := Event{
		Seq:         m.eventSeq,
		Time:        time.Now(),
		Device:      rec.id,
		Fingerprint: rec.fp,
		From:        from,
		To:          to,
		Reason:      reason,
	}
	if len(m.events) >= maxEvents {
		copy(m.events, m.events[1:])
		m.events[len(m.events)-1] = ev
	} else {
		m.events = append(m.events, ev)
	}
	if m.rec != nil {
		kind := obs.KindQuarantine
		switch to {
		case Probation:
			kind = obs.KindProbation
		case Healthy:
			kind = obs.KindReadmit
		}
		m.rec.Record(obs.Event{Kind: kind, Subsystem: "fleet", Device: rec.id, Slot: -1,
			Detail: fmt.Sprintf("%s→%s: %s (fp %016x)", from, to, reason, rec.fp)})
	}
}

// removeFreeLocked withdraws a device from the free pool if present (it
// may be leased when the fault lands, in which case release skips it).
func (m *Manager) removeFreeLocked(idx int) {
	for i, f := range m.free {
		if f == idx {
			m.free = append(m.free[:i], m.free[i+1:]...)
			return
		}
	}
}

// maxEvents bounds the in-memory quarantine event log.
const maxEvents = 128

// Event is one quarantine state transition.
type Event struct {
	Seq         int64
	Time        time.Time
	Device      int
	Fingerprint uint64
	From, To    State
	Reason      string
}
