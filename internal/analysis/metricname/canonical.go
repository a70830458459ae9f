package metricname

// Canonical is the single source of truth for the darknight_* metric
// namespace. Every family the codebase registers (obs registry, resil
// counters, fleet gauges, the darknight facade) must appear here, and
// everything here must be registered by exactly the code that claims it.
// DESIGN.md and README.md mention metrics by these names; the package
// test cross-checks those documents against this list so prose and code
// cannot drift apart silently.
//
// Adding a metric is a two-line change: register it, list it here. The
// analyzer turns a typo'd or undocumented family into a lint failure
// instead of a dashboard that silently reads zero.
var Canonical = map[string]bool{
	// serve: request lifecycle and batching.
	"darknight_requests_completed_total":          true,
	"darknight_requests_failed_total":             true,
	"darknight_requests_integrity_failures_total": true,
	"darknight_batches_total":                     true,
	"darknight_queue_depth":                       true,
	"darknight_batch_rows_total":                  true,
	"darknight_request_latency_hist_seconds":      true,
	"darknight_tenant_requests_total":             true,

	// serve: TEE phase accounting and offload.
	"darknight_tee_phase_seconds_total": true,
	"darknight_tee_offloads_total":      true,
	"darknight_offload_flights_total":   true,
	"darknight_continuous_admits_total": true,

	// serve: noise pool.
	"darknight_noisepool_hits_total":   true,
	"darknight_noisepool_misses_total": true,

	// training facade.
	"darknight_train_phase_seconds_total": true,
	"darknight_train_offloads_total":      true,

	// obs: process and SLO.
	"darknight_build_info":         true,
	"darknight_uptime_seconds":     true,
	"darknight_slo_burn_rate":      true,
	"darknight_slo_breaches_total": true,

	// fleet: device health and tenancy.
	"darknight_fleet_devices":                     true,
	"darknight_fleet_free_devices":                true,
	"darknight_fleet_device_dispatches_total":     true,
	"darknight_fleet_device_faults_total":         true,
	"darknight_fleet_device_stragglers_total":     true,
	"darknight_fleet_quarantine_events_total":     true,
	"darknight_fleet_readmissions_total":          true,
	"darknight_fleet_straggler_events_total":      true,
	"darknight_fleet_speculations_total":          true,
	"darknight_fleet_async_dispatches_total":      true,
	"darknight_fleet_peak_overlap":                true,
	"darknight_fleet_slo_breaches_total":          true,
	"darknight_fleet_flight_latency_seconds":      true,
	"darknight_fleet_tenant_grants_total":         true,
	"darknight_fleet_tenant_device_seconds_total": true,
	"darknight_fleet_tenant_queued":               true,

	// resil: adaptive resilience layer.
	"darknight_resil_deadline_total":          true,
	"darknight_resil_shed_total":              true,
	"darknight_resil_retries_total":           true,
	"darknight_resil_retry_success_total":     true,
	"darknight_resil_retries_exhausted_total": true,
	"darknight_resil_hedges_total":            true,
	"darknight_resil_hedge_wins_total":        true,
	"darknight_resil_hedge_losses_total":      true,
	"darknight_resil_hedge_mismatch_total":    true,
	"darknight_resil_brownout_shifts_total":   true,
	"darknight_resil_brownout_level":          true,
	"darknight_resil_chaos_actions_total":     true,
}
