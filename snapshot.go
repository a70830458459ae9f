package darknight

import (
	"errors"
	"time"

	"darknight/internal/gpu"
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
		Arch:       s.cfg.Arch,
		Name:       s.ref.Name,
		InShape:    append([]int(nil), s.ref.InShape...),
		Classes:    s.ref.Classes,
		Seed:       s.cfg.Seed,
		WeightHash: obs.HashWeights(w),
	}
	if s.cfg.Observability.SnapshotWeights {
		snap.Model.Weights = w
	}
	snap.Cluster = clusterInfo(s.cfg.Config)
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

// clusterInfo records the device composition a Config builds — the same
// defaulting rules as buildCluster, so replay reconstructs an identical
// cluster. ServerConfig.SlowAll has already been expanded into SlowGPUs by
// NewServer.
func clusterInfo(cfg Config) obs.ClusterInfo {
	ci := obs.ClusterInfo{Size: cfg.GPUs}
	policy := cfg.FaultPolicy
	if policy.EveryNth == 0 && policy.Probability == 0 {
		policy = gpu.FaultPolicy{EveryNth: 1}
	}
	for _, idx := range cfg.MaliciousGPUs {
		ci.Malicious = append(ci.Malicious, obs.MaliciousDevice{
			Index:       idx,
			EveryNth:    policy.EveryNth,
			Offset:      policy.Offset,
			Probability: policy.Probability,
			Seed:        policy.Seed,
		})
	}
	delay := cfg.SlowDelay
	if delay == 0 {
		delay = 5 * time.Millisecond
	}
	for _, idx := range cfg.SlowGPUs {
		ci.Slow = append(ci.Slow, obs.SlowDevice{Index: idx, DelayNs: int64(delay)})
	}
	return ci
}
