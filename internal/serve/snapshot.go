package serve

import (
	"time"

	"darknight/internal/obs"
)

// CaptureSnapshot assembles the serving layers' sections of a state
// snapshot: coding geometry, serve occupancy, the fleet's health and
// lane state (captured under the fleet lock, so its grant counts and
// lease flags are mutually consistent), the completed-batch log and the
// flight-recorder window. The model and cluster sections are the
// facade's to fill — serve has no knowledge of device composition.
// Requires an attached observability stack (Config.Obs != nil).
func (s *Server) CaptureSnapshot() *obs.Snapshot {
	sc := s.pipes[0].Config()
	snap := &obs.Snapshot{Version: obs.SnapshotVersion, CapturedAt: time.Now()}
	snap.Sched = obs.SchedInfo{
		K:              sc.VirtualBatch,
		Collusion:      sc.Collusion,
		Redundancy:     sc.Redundancy,
		StragglerSlack: sc.StragglerSlack,
		Seed:           sc.Seed,
	}
	m := s.metrics.Snapshot()
	snap.Serving = obs.ServingInfo{
		Workers:          len(s.pipes),
		PipelineDepth:    s.cfg.PipelineDepth,
		Continuous:       s.cfg.Continuous,
		Recover:          s.cfg.Recover,
		QueueDepthCfg:    cap(s.admit),
		MaxWaitNs:        int64(s.cfg.MaxWait),
		QueueDepth:       m.QueueDepth,
		BatchesCompleted: m.Batches,
		Completed:        m.Completed,
		Failed:           m.Failed,
		IntegrityEvents:  m.Integrity,
		ContinuousAdmits: m.ContinuousAdmits,
	}
	s.fleet.SnapshotInto(&snap.Fleet)
	snap.Batches, snap.BatchesDropped = s.batchlog.dump()
	snap.Events = s.obs.Recorder.Dump()
	if len(snap.Events) > 0 {
		// Derived from the same dump rather than a second recorder read,
		// so the dropped count is consistent with the window it describes.
		snap.EventsDropped = snap.Events[0].Seq - 1
	}
	return snap
}

// SLO returns the tracker built from Config.SLO (nil when no objectives
// were configured).
func (s *Server) SLO() *obs.SLOTracker { return s.metrics.slo }
