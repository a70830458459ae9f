package darknight

import (
	"errors"
	"slices"

	"darknight/internal/obs"
)

// CaptureSnapshot captures a versioned state snapshot of the running
// server: coding geometry, serving occupancy, fleet health and lane
// state, model identity (weight hash, or full weights when
// Observability.SnapshotWeights is set), cluster composition, the
// completed-batch replay log and the flight-recorder window. The result
// serializes to JSON (StateSnapshot.WriteJSON / SaveSnapshot) and replays
// deterministically (Replay / `darknight replay`). Requires the
// observability stack.
func (s *Server) CaptureSnapshot() (*StateSnapshot, error) {
	if s.obs == nil {
		return nil, errors.New("darknight: snapshots need ServerConfig.Observability enabled")
	}
	snap := s.inner.CaptureSnapshot()
	w := (&Model{m: s.ref}).Weights()
	snap.Model = obs.ModelInfo{
		Arch:       s.arch,
		Name:       s.ref.Name,
		InShape:    append([]int(nil), s.ref.InShape...),
		Classes:    s.ref.Classes,
		Seed:       s.cfg.Seed,
		WeightHash: obs.HashWeights(w),
	}
	if s.cfg.Observability.SnapshotWeights {
		snap.Model.Weights = w
	}
	snap.Cluster = s.info
	snap.Cluster.Malicious = slices.Clone(s.info.Malicious)
	snap.Cluster.Slow = slices.Clone(s.info.Slow)
	return snap, nil
}

// SaveSnapshot captures a snapshot and writes it to path.
func (s *Server) SaveSnapshot(path string) error {
	snap, err := s.CaptureSnapshot()
	if err != nil {
		return err
	}
	return obs.SaveSnapshot(snap, path)
}

// SLO returns the server's burn-rate tracker (nil unless
// Observability.SLO declares objectives).
func (s *Server) SLO() *SLOTracker { return s.inner.SLO() }
