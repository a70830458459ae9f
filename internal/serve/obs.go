package serve

import (
	"darknight/internal/masking"
	"darknight/internal/obs"
	"darknight/internal/sched"
)

// registerViews registers the serving families whose store is not a serve
// instrument: the TEE phase totals and the noise-pool counters live in the
// workers' pipelines and are summed at scrape time, exactly as
// Server.Metrics reads them. The serving instruments themselves register
// in newMetrics, the fleet's in fleet.Manager.RegisterMetrics; together
// they are the /metrics surface.
func (s *Server) registerViews(r *obs.Registry) {
	r.SampleFunc("darknight_tee_phase_seconds_total",
		"Cumulative TEE-side time by phase across all workers' offloads.", "counter",
		func() []obs.Sample {
			ph := s.phaseStats()
			return []obs.Sample{
				{Labels: map[string]string{"phase": "encode"}, Value: ph.Encode.Seconds()},
				{Labels: map[string]string{"phase": "dispatch"}, Value: ph.Dispatch.Seconds()},
				{Labels: map[string]string{"phase": "decode"}, Value: ph.Decode.Seconds()},
				{Labels: map[string]string{"phase": "wall"}, Value: ph.Wall.Seconds()},
			}
		})
	r.CounterFunc("darknight_tee_offloads_total",
		"Bilinear-layer offload dispatches measured by the phase breakdown.",
		func() float64 { return float64(s.phaseStats().Offloads) })
	r.CounterFunc("darknight_offload_flights_total",
		"Gang flights dispatched (a fused block carries several offloads per flight).",
		func() float64 { return float64(s.phaseStats().Flights) })
	r.SampleFunc("darknight_fused_block_size",
		"Fused-block flight accounting: flights, the layers they carried, and the mean fused depth.", "gauge",
		func() []obs.Sample {
			ph := s.phaseStats()
			mean := 0.0
			if ph.FusedBlocks > 0 {
				mean = float64(ph.FusedLayers) / float64(ph.FusedBlocks)
			}
			return []obs.Sample{
				{Labels: map[string]string{"stat": "blocks"}, Value: float64(ph.FusedBlocks)},
				{Labels: map[string]string{"stat": "layers"}, Value: float64(ph.FusedLayers)},
				{Labels: map[string]string{"stat": "mean_depth"}, Value: mean},
			}
		})
	sched.RegisterPoolMetrics(r, s.poolStats)
}

// phaseStats sums the workers' TEE-side phase breakdown. Each pipeline
// folds a batch's phase time when its lane is released, which precedes the
// batch's completion, so a client that has its answer finds it counted.
func (s *Server) phaseStats() sched.PhaseStats {
	var st sched.PhaseStats
	for _, p := range s.pipes {
		st = st.Add(p.PhaseStats())
	}
	return st
}

// poolStats aggregates the workers' noise-pool counters.
func (s *Server) poolStats() masking.NoisePoolStats {
	var st masking.NoisePoolStats
	for _, p := range s.pipes {
		ps := p.PoolStats()
		st.Hits += ps.Hits
		st.Misses += ps.Misses
		st.Refills += ps.Refills
	}
	return st
}
