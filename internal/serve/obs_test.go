package serve

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"darknight/internal/field"
	"darknight/internal/fleet"
	"darknight/internal/gpu"
	"darknight/internal/masking"
	"darknight/internal/obs"
	"darknight/internal/sched"
)

// validateTraces asserts every retained trace is a well-formed tree —
// request→admit on all, and on each batch leader seal + batch →
// grant/offload → encode/dispatch/decode with the right parents and
// annotations, every span ended — and returns (leader count, count of
// offloads whose dispatch carries the quorum annotation).
func validateTraces(t *testing.T, traces []*obs.Span) (leaders, quorums int) {
	t.Helper()
	for _, root := range traces {
		if root.Name() != "request" {
			t.Fatalf("root span named %q", root.Name())
		}
		root.Walk(func(sp *obs.Span) {
			if !sp.Ended() {
				t.Fatalf("span %q left open in a completed trace", sp.Name())
			}
		})
		admit := root.Find("admit")
		if admit == nil || admit.Parent() != root {
			t.Fatalf("admit span missing or misparented:\n%s", root.RenderString())
		}
		batch := root.Find("batch")
		if batch == nil {
			continue // rider on another leader's batch: request+admit only
		}
		leaders++
		if batch.Parent() != root {
			t.Fatalf("batch parented to %q", batch.Parent().Name())
		}
		if seal := root.Find("seal"); seal == nil || seal.Parent() != root {
			t.Fatalf("leader trace missing seal:\n%s", root.RenderString())
		}
		for _, key := range []string{"tenant", "rows", "gang", "lane"} {
			if batch.Attr(key) == "" {
				t.Fatalf("batch span missing %q annotation:\n%s", key, root.RenderString())
			}
		}
		if g := batch.Find("grant"); g == nil || g.Parent() != batch {
			t.Fatalf("grant span missing under batch:\n%s", root.RenderString())
		}
		offloads := batch.FindAll("offload")
		if len(offloads) == 0 {
			t.Fatalf("no offload spans under batch:\n%s", root.RenderString())
		}
		for _, off := range offloads {
			if off.Parent() != batch {
				t.Fatalf("offload parented to %q", off.Parent().Name())
			}
			for _, phase := range []string{"encode", "dispatch", "decode"} {
				ph := off.Find(phase)
				if ph == nil || ph.Parent() != off {
					t.Fatalf("offload missing %s child:\n%s", phase, root.RenderString())
				}
			}
			if off.Find("dispatch").Attr("quorum") != "" {
				quorums++
			}
		}
	}
	if leaders == 0 {
		t.Fatal("no trace carries a batch subtree")
	}
	return leaders, quorums
}

// tracedRun drives requests concurrently through a pipelined traced
// server and returns the observability bundle for inspection. Run under
// -race this proves the span handoff across client → batcher → worker →
// lane goroutines is clean.
func tracedRun(t *testing.T, devs []gpu.Device, scfg sched.Config, recover bool, requests int) *obs.Observability {
	t.Helper()
	fm := fleet.NewManager(gpu.NewCluster(devs...), fleet.Config{ProbationProbability: -1})
	ob := obs.New(obs.Options{TraceSample: 1, TraceKeep: 2 * requests, RecorderSize: 512, Seed: 5})
	srv, err := New(Config{
		Sched:         scfg,
		MaxWait:       time.Millisecond,
		PipelineDepth: 2,
		Recover:       recover,
		Obs:           ob,
	}, replicas(1, scfg.Seed), fm, nil)
	if err != nil {
		t.Fatal(err)
	}
	imgs := sampleImages(requests, scfg.Seed+1)
	var wg sync.WaitGroup
	for i := range imgs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, err := srv.Infer(context.Background(), imgs[i]); err != nil {
				t.Errorf("request %d: %v", i, err)
			}
		}(i)
	}
	wg.Wait()
	srv.Close()

	traces := ob.Tracer.Recent()
	if len(traces) == 0 {
		t.Fatal("no traces retained at 100% sampling")
	}
	_, sampled, completed := ob.Tracer.Counts()
	if sampled != int64(requests) || completed != int64(requests) {
		t.Fatalf("sampled %d / completed %d traces, want %d", sampled, completed, requests)
	}
	return ob
}

// TestTracePropagationQuorum: pipelined depth-2 serving with a
// deterministic straggler and StragglerSlack 1 — every span tree is
// complete and correctly parented, and the early quorum decode shows up
// as dispatch-span annotations.
func TestTracePropagationQuorum(t *testing.T) {
	const (
		k        = 2
		e        = 2
		requests = 24
	)
	gang := k + 1 + e
	devs := make([]gpu.Device, 2*gang)
	for i := range devs {
		devs[i] = gpu.NewHonest(i)
	}
	devs[3] = gpu.NewSlow(devs[3], 10*time.Millisecond)

	ob := tracedRun(t, devs,
		sched.Config{VirtualBatch: k, Redundancy: e, StragglerSlack: 1, Seed: 5},
		false, requests)

	_, quorums := validateTraces(t, ob.Tracer.Recent())
	if quorums == 0 {
		t.Fatal("no dispatch span carries the quorum annotation despite StragglerSlack=1")
	}
	kinds := map[string]bool{}
	for _, ev := range ob.Recorder.Dump() {
		kinds[ev.Kind] = true
	}
	if !kinds[obs.KindGrant] || !kinds[obs.KindRelease] {
		t.Fatalf("flight recorder missing grant/release events (saw %v)", kinds)
	}
}

// TestTracePropagationMidFlightQuarantine: a persistent tamperer inside a
// pipelined traced run — recovery masks the fault, the device is
// quarantined mid-flight, and the traces stay well formed while the
// flight recorder captures the grant→integrity→quarantine story.
func TestTracePropagationMidFlightQuarantine(t *testing.T) {
	const (
		k        = 2
		e        = 2
		requests = 24
	)
	gang := k + 1 + e
	devs := make([]gpu.Device, 2*gang+1)
	for i := range devs {
		devs[i] = gpu.NewHonest(i)
	}
	devs[1] = gpu.NewMalicious(devs[1], gpu.FaultPolicy{EveryNth: 1})

	ob := tracedRun(t, devs,
		sched.Config{VirtualBatch: k, Redundancy: e, Seed: 7},
		true, requests)

	validateTraces(t, ob.Tracer.Recent())
	kinds := map[string]bool{}
	quarantined := false
	for _, ev := range ob.Recorder.Dump() {
		kinds[ev.Kind] = true
		if ev.Kind == obs.KindQuarantine && ev.Device == 1 {
			quarantined = true
		}
	}
	for _, want := range []string{obs.KindGrant, obs.KindRelease, obs.KindIntegrity, obs.KindQuarantine} {
		if !kinds[want] {
			t.Fatalf("flight recorder missing %q events (saw %v)", want, kinds)
		}
	}
	if !quarantined {
		t.Fatal("no quarantine event attributed to the tampering device")
	}
}

// switchDevice is an honest device that tampers while on is set: a fault
// the test turns on and off between requests.
type switchDevice struct {
	gpu.Device
	bad gpu.Device
	on  *atomic.Bool
}

func (d switchDevice) LinearForward(key string, kernel gpu.LinearKernel, x field.Vec) field.Vec {
	if d.on.Load() {
		return d.bad.LinearForward(key, kernel, x)
	}
	return d.Device.LinearForward(key, kernel, x)
}

// scrapeRun serves a fixed request sequence — one request at a time with
// immediate flush, so every batch carries one real row whatever the timing:
// six for gold and three for bronze on an honest fleet, then two for gold
// with a tampering device in the only gang — and returns the quiescent
// Metrics() view with the scrape of reg taken beside it.
func scrapeRun(t *testing.T, ob *obs.Observability) (Snapshot, map[string]float64) {
	t.Helper()
	const k = 4
	var tamper atomic.Bool
	devs := make([]gpu.Device, k+2) // M = 1, E = 1: detection without attribution
	for i := range devs {
		devs[i] = gpu.NewHonest(i)
	}
	devs[1] = switchDevice{Device: devs[1], bad: gpu.NewMalicious(gpu.NewHonest(1), gpu.FaultPolicy{EveryNth: 1}), on: &tamper}
	// Nothing is quarantined, so the one gang stays whole: the two
	// unattributed verdicts add 0.4 each, 0.8 below the threshold of 1.
	fm := fleet.NewManager(gpu.NewCluster(devs...), fleet.Config{})
	srv, err := New(Config{
		Sched:   sched.Config{VirtualBatch: k, Redundancy: 1, Seed: 3},
		MaxWait: -1,
		Obs:     ob,
	}, replicas(1, 3), fm, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	imgs := sampleImages(11, 4)
	for i, img := range imgs {
		tenant := "gold"
		if i >= 6 && i < 9 {
			tenant = "bronze"
		}
		tamper.Store(i >= 9)
		if _, err := srv.InferTenant(context.Background(), tenant, img); (err != nil) != (i >= 9) || (err != nil && !IsIntegrityError(err)) {
			t.Fatalf("request %d: %v", i, err)
		}
	}
	snap := srv.Metrics()
	if ob == nil {
		return snap, nil
	}
	var b strings.Builder
	if err := ob.Registry.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	parsed, err := obs.ParsePrometheus(strings.NewReader(b.String()))
	if err != nil {
		t.Fatalf("scrape does not parse: %v\n%s", err, b.String())
	}
	return snap, parsed
}

// TestServeMetricsRegistryScrape: Metrics() and /metrics are two reads of
// the same instruments, so on a quiescent server every scalar of the
// Snapshot and of every TenantSnapshot equals its scraped series — and a
// server with no Observability attached, whose instruments sit in a private
// registry, fills the same view. Throughput and Overlap have no family
// (they divide two exported numbers by a clock reading); Fleet is checked
// by the fleet's own tests.
func TestServeMetricsRegistryScrape(t *testing.T) {
	snap, parsed := scrapeRun(t, obs.New(obs.Options{Seed: 1}))

	rows := func(tenant, kind string) float64 {
		return parsed["darknight_batch_rows_total"+fmt.Sprintf("{kind=%q,tenant=%q}", kind, tenant)]
	}
	want := map[string]float64{
		"darknight_requests_completed_total":                  float64(snap.Completed),
		"darknight_requests_failed_total":                     float64(snap.Failed),
		"darknight_requests_integrity_failures_total":         float64(snap.Integrity),
		"darknight_queue_depth":                               float64(snap.QueueDepth),
		"darknight_continuous_admits_total":                   float64(snap.ContinuousAdmits),
		`darknight_tee_phase_seconds_total{phase="encode"}`:   snap.Phases.Encode.Seconds(),
		`darknight_tee_phase_seconds_total{phase="dispatch"}`: snap.Phases.Dispatch.Seconds(),
		`darknight_tee_phase_seconds_total{phase="decode"}`:   snap.Phases.Decode.Seconds(),
		`darknight_tee_phase_seconds_total{phase="wall"}`:     snap.Phases.Wall.Seconds(),
		"darknight_tee_offloads_total":                        float64(snap.Phases.Offloads),
		"darknight_offload_flights_total":                     float64(snap.Phases.Flights),
		"darknight_noisepool_hits_total":                      float64(snap.NoisePool.Hits),
		"darknight_noisepool_misses_total":                    float64(snap.NoisePool.Misses),
		"darknight_resil_deadline_total":                      float64(snap.Resil.Deadline),
		"darknight_resil_shed_total":                          float64(snap.Resil.Shed),
		"darknight_resil_retries_total":                       float64(snap.Resil.Retries),
		"darknight_resil_retry_success_total":                 float64(snap.Resil.RetrySuccess),
		"darknight_resil_retries_exhausted_total":             float64(snap.Resil.RetriesExhausted),
		"darknight_resil_hedges_total":                        float64(snap.Resil.Hedges),
		"darknight_resil_hedge_wins_total":                    float64(snap.Resil.HedgeWins),
		"darknight_resil_hedge_losses_total":                  float64(snap.Resil.HedgeLosses),
		"darknight_resil_hedge_mismatch_total":                float64(snap.Resil.HedgeMismatch),
		"darknight_resil_brownout_shifts_total":               float64(snap.Resil.BrownoutShifts),
		"darknight_resil_brownout_level":                      float64(snap.Resil.BrownoutLevel),
		"darknight_resil_chaos_actions_total":                 float64(snap.Resil.ChaosActions),
		`darknight_fleet_devices{state="healthy"}`:            float64(snap.Fleet.Healthy),
	}
	var batches, real, padded, timed float64
	for _, ts := range snap.Tenants {
		label := fmt.Sprintf("tenant=%q", ts.Name)
		want[`darknight_tenant_requests_total{outcome="completed",`+label+`}`] = float64(ts.Completed)
		want[`darknight_tenant_requests_total{outcome="failed",`+label+`}`] = float64(ts.Failed)
		want[`darknight_batches_total{`+label+`}`] = float64(ts.Batches)
		want[`darknight_batch_rows_total{kind="real",`+label+`}`] = float64(ts.RealRows)
		want[`darknight_request_latency_hist_seconds_count{`+label+`}`] = float64(ts.Completed)
		if got := rows(ts.Name, "real") / (rows(ts.Name, "real") + rows(ts.Name, "padded")); got != ts.Occupancy {
			t.Errorf("tenant %s: occupancy %v, scraped rows give %v", ts.Name, ts.Occupancy, got)
		}
		batches += parsed[`darknight_batches_total{`+label+`}`]
		real += rows(ts.Name, "real")
		padded += rows(ts.Name, "padded")
		timed += parsed[`darknight_request_latency_hist_seconds_count{`+label+`}`]
	}
	for series, v := range want {
		// A vec's child appears with its first event; a tenant that never
		// failed has no failed series.
		lazy := v == 0 && strings.Contains(series, "tenant=")
		if got, ok := parsed[series]; got != v || !(ok || lazy) {
			t.Errorf("%s = %v (present %v), snapshot says %v", series, got, ok, v)
		}
	}
	if batches != float64(snap.Batches) || real != float64(snap.RealRows) || padded != float64(snap.PaddedRows) {
		t.Errorf("scraped batches/real/padded %v/%v/%v, snapshot %d/%d/%d",
			batches, real, padded, snap.Batches, snap.RealRows, snap.PaddedRows)
	}
	if got := real / (real + padded); got != snap.Occupancy {
		t.Errorf("occupancy %v, scraped rows give %v", snap.Occupancy, got)
	}
	// The latency histogram times completed requests only, and its rings
	// are what P50/P99 are read from.
	if timed != float64(snap.Completed) || snap.P50 <= 0 || snap.P99 < snap.P50 {
		t.Errorf("timed %v of %d completed, p50 %v p99 %v", timed, snap.Completed, snap.P50, snap.P99)
	}
	// The run shape itself: 9 answered, 2 rejected as tampered, one real
	// row per batch of 4.
	if snap.Completed != 9 || snap.Failed != 2 || snap.Integrity != 2 || snap.Batches != 11 ||
		snap.RealRows != 11 || snap.PaddedRows != 33 || snap.Occupancy != 0.25 || len(snap.Tenants) != 2 {
		t.Errorf("unexpected run shape: %+v", snap)
	}

	// Detached, the same run fills the same view: every count equal, the
	// clock-dependent fields populated.
	counts := func(s Snapshot) string {
		gets := s.NoisePool.Hits + s.NoisePool.Misses // which of the two a Get counts as is a race with the generator
		s.Throughput, s.P50, s.P99, s.Overlap = 0, 0, 0, 0
		s.Phases.Encode, s.Phases.Dispatch, s.Phases.Decode, s.Phases.Wall = 0, 0, 0, 0
		s.NoisePool, s.Fleet = masking.NoisePoolStats{}, fleet.Stats{}
		return fmt.Sprintf("%+v gets=%d", s, gets)
	}
	detached, _ := scrapeRun(t, nil)
	if got, want := counts(detached), counts(snap); got != want {
		t.Errorf("detached server's Metrics() differs:\n got %s\nwant %s", got, want)
	}
	if detached.P50 <= 0 || detached.P99 < detached.P50 || detached.Throughput <= 0 || detached.Phases.Encode <= 0 {
		t.Errorf("detached server left clock fields empty: %+v", detached)
	}
}

// TestCompletionAccountingAllocs pins the per-batch accounting at zero
// allocations once a tenant's instruments exist — the deterministic proxy
// for "the always-on instruments cost the request path nothing to speak of"
// (their time is the harness's obs.histogram_observe_ns).
func TestCompletionAccountingAllocs(t *testing.T) {
	m := newMetrics(4, obs.NewRegistry())
	now := time.Now()
	b := &vbatch{tenant: "gold"}
	for i := 0; i < 3; i++ {
		b.reqs = append(b.reqs, &request{tenant: "gold", enqueued: now.Add(-time.Millisecond)})
	}
	for _, c := range []struct {
		name string
		err  error
	}{
		{"completed", nil},
		{"failed", masking.ErrIntegrity},
	} {
		m.finished(b, now, c.err) // first use creates the tenant's children
		if n := testing.AllocsPerRun(100, func() { m.finished(b, now, c.err) }); n != 0 {
			t.Errorf("%s batch: accounting allocates %v times per batch", c.name, n)
		}
	}
	if s := m.Snapshot(); s.Completed != 3*102 || s.Failed != 3*102 || s.Integrity != s.Failed || s.P99 != time.Millisecond {
		t.Errorf("accounting lost counts: %+v", s)
	}
}
