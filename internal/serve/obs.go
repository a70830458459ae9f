package serve

import (
	"darknight/internal/masking"
	"darknight/internal/obs"
)

// registerMetrics registers the serving series into the registry. Every
// series is a scrape-time closure over the Metrics counters — nothing is
// added to the request hot path. The fleet's series register separately
// (fleet.Manager.RegisterMetrics); together they are the /metrics surface.
func (s *Server) registerMetrics(r *obs.Registry) {
	m := s.metrics
	lockedInt := func(fn func() int64) func() float64 {
		return func() float64 {
			m.mu.Lock()
			defer m.mu.Unlock()
			return float64(fn())
		}
	}
	r.CounterFunc("darknight_requests_completed_total",
		"Requests answered successfully.",
		lockedInt(func() int64 { return m.completed }))
	r.CounterFunc("darknight_requests_failed_total",
		"Requests answered with an error.",
		lockedInt(func() int64 { return m.failed }))
	r.CounterFunc("darknight_requests_integrity_failures_total",
		"Failed requests caused by tampered GPU results.",
		lockedInt(func() int64 { return m.integrity }))
	r.CounterFunc("darknight_batches_total",
		"Virtual batches dispatched.",
		lockedInt(func() int64 { return m.batches }))
	r.GaugeFunc("darknight_queue_depth",
		"Admitted requests not yet dispatched.",
		lockedInt(func() int64 { return int64(m.depth) }))
	r.GaugeFunc("darknight_batch_occupancy",
		"Mean fraction of real rows per dispatched batch.",
		func() float64 {
			m.mu.Lock()
			defer m.mu.Unlock()
			if m.batches == 0 {
				return 0
			}
			return float64(m.realRows) / float64(m.batches*int64(m.k))
		})
	r.SampleFunc("darknight_batch_rows_total",
		"Rows dispatched across all batches, by kind.", "counter",
		func() []obs.Sample {
			m.mu.Lock()
			rr, pr := m.realRows, m.padRows
			m.mu.Unlock()
			return []obs.Sample{
				{Labels: map[string]string{"kind": "real"}, Value: float64(rr)},
				{Labels: map[string]string{"kind": "padded"}, Value: float64(pr)},
			}
		})
	r.SampleFunc("darknight_request_latency_seconds",
		"Request latency quantiles over the recent completion window.", "gauge",
		func() []obs.Sample {
			p50, p99 := m.quantiles()
			return []obs.Sample{
				{Labels: map[string]string{"quantile": "0.5"}, Value: p50.Seconds()},
				{Labels: map[string]string{"quantile": "0.99"}, Value: p99.Seconds()},
			}
		})
	r.SampleFunc("darknight_tee_phase_seconds_total",
		"Cumulative TEE-side time by phase across all workers' offloads.", "counter",
		func() []obs.Sample {
			m.mu.Lock()
			ph := m.phase
			m.mu.Unlock()
			return []obs.Sample{
				{Labels: map[string]string{"phase": "encode"}, Value: ph.Encode.Seconds()},
				{Labels: map[string]string{"phase": "dispatch"}, Value: ph.Dispatch.Seconds()},
				{Labels: map[string]string{"phase": "decode"}, Value: ph.Decode.Seconds()},
				{Labels: map[string]string{"phase": "wall"}, Value: ph.Wall.Seconds()},
			}
		})
	r.CounterFunc("darknight_tee_offloads_total",
		"Bilinear-layer offload dispatches measured by the phase breakdown.",
		lockedInt(func() int64 { return m.phase.Offloads }))
	r.CounterFunc("darknight_offload_flights_total",
		"Gang flights dispatched (a fused block carries several offloads per flight).",
		lockedInt(func() int64 { return m.phase.Flights }))
	r.SampleFunc("darknight_fused_block_size",
		"Fused-block flight accounting: flights, the layers they carried, and the mean fused depth.", "gauge",
		func() []obs.Sample {
			m.mu.Lock()
			blocks, layers := m.phase.FusedBlocks, m.phase.FusedLayers
			m.mu.Unlock()
			mean := 0.0
			if blocks > 0 {
				mean = float64(layers) / float64(blocks)
			}
			return []obs.Sample{
				{Labels: map[string]string{"stat": "blocks"}, Value: float64(blocks)},
				{Labels: map[string]string{"stat": "layers"}, Value: float64(layers)},
				{Labels: map[string]string{"stat": "mean_depth"}, Value: mean},
			}
		})
	r.CounterFunc("darknight_continuous_admits_total",
		"Requests admitted into an already-flushed batch in place of a pad row.",
		lockedInt(func() int64 { return m.continuous }))
	r.CounterFunc("darknight_noisepool_hits_total",
		"Encodes served from precomputed noise material.",
		func() float64 { return float64(s.poolStats().Hits) })
	r.CounterFunc("darknight_noisepool_misses_total",
		"Encodes that found the noise ring empty and drew inline.",
		func() float64 { return float64(s.poolStats().Misses) })
	r.GaugeFunc("darknight_noisepool_fallbacks",
		"Current count of inline-RNG fallbacks — nonzero and growing means the pool is undersized.",
		func() float64 { return float64(s.poolStats().Misses) })
	// Live histogram instruments (not scrape-time closures): the hot path
	// pays one atomic bucket increment plus a short ring append per
	// observation — the cost the PR 8 overhead gate bounds by pairing
	// against Config.NoHistograms (nil vecs are inert).
	if !s.cfg.NoHistograms {
		m.latHist = r.HistogramVec("darknight_request_latency_hist_seconds",
			"Per-tenant end-to-end request latency (log buckets, exact ring quantiles).",
			"tenant", obs.LatencyBuckets())
		m.phaseHist = r.HistogramVec("darknight_tee_phase_latency_seconds",
			"Per-batch TEE-side time by phase (encode/dispatch/decode).",
			"phase", obs.LatencyBuckets())
	}
	r.SampleFunc("darknight_tenant_requests_total",
		"Per-tenant request outcomes.", "counter",
		func() []obs.Sample {
			m.mu.Lock()
			defer m.mu.Unlock()
			out := make([]obs.Sample, 0, 2*len(m.tenants))
			for name, tc := range m.tenants {
				out = append(out,
					obs.Sample{Labels: map[string]string{"tenant": name, "outcome": "completed"}, Value: float64(tc.completed)},
					obs.Sample{Labels: map[string]string{"tenant": name, "outcome": "failed"}, Value: float64(tc.failed)},
				)
			}
			return out
		})
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
