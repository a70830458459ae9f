package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"path/filepath"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"darknight"
)

// loadChaos loads the chaos schedule at path (nil for none).
func loadChaos(path string) *darknight.ChaosSchedule {
	if path == "" {
		return nil
	}
	sched, err := darknight.LoadChaosSchedule(path)
	if err != nil {
		log.Fatal(err)
	}
	return sched
}

// loadResult is one load run's per-error-class outcome breakdown: every
// client-visible error is classified, so an unexplained failure is exactly
// Failed.
type loadResult struct {
	OK        int64 // answered successfully
	Integrity int64 // rejected: tampered GPU results detected
	Deadline  int64 // typed deadline-budget expiries (resil)
	Shed      int64 // typed admission-control sheds (resil)
	Failed    int64 // anything else — unexplained
}

// errors returns the total error count.
func (r loadResult) errors() int64 { return r.Integrity + r.Deadline + r.Shed + r.Failed }

// runLoad drives closed-loop client goroutines against a server for the
// given duration (or until ctx is done — the graceful-shutdown path),
// spreading clients round-robin over the tenants (empty = default tenant).
func runLoad(ctx context.Context, srv *darknight.Server, images [][]float64, clients int, d time.Duration, tenants []darknight.Tenant) loadResult {
	var r loadResult
	deadline := time.Now().Add(d)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var tenant string // "" is the default tenant
			if len(tenants) > 0 {
				tenant = tenants[c%len(tenants)].Name
			}
			for i := c; time.Now().Before(deadline) && ctx.Err() == nil; i++ {
				_, err := srv.InferAs(ctx, tenant, images[i%len(images)])
				switch {
				case err == nil:
					atomic.AddInt64(&r.OK, 1)
				case ctx.Err() != nil:
					// Shutdown raced the request; not a service error.
				case darknight.IsIntegrityError(err):
					atomic.AddInt64(&r.Integrity, 1)
				case darknight.IsShed(err):
					atomic.AddInt64(&r.Shed, 1)
					// A shed is an explicit back-off signal.
					time.Sleep(500 * time.Microsecond)
				case darknight.IsDeadline(err):
					atomic.AddInt64(&r.Deadline, 1)
				default:
					atomic.AddInt64(&r.Failed, 1)
				}
			}
		}(c)
	}
	wg.Wait()
	return r
}

// printResil reports the run's resilience accounting when any of it moved.
func printResil(r loadResult, rs darknight.ResilSnapshot) {
	if r.errors() > 0 || rs.Retries > 0 || rs.Hedges > 0 || rs.BrownoutShifts > 0 {
		fmt.Printf("errors: %d integrity, %d deadline, %d shed, %d other\n",
			r.Integrity, r.Deadline, r.Shed, r.Failed)
	}
	if rs.Retries > 0 || rs.RetriesExhausted > 0 {
		fmt.Printf("retries: %d re-dispatches, %d batches recovered, %d exhausted\n",
			rs.Retries, rs.RetrySuccess, rs.RetriesExhausted)
	}
	if rs.Hedges > 0 {
		fmt.Printf("hedging: %d duplicate flights, %d won, %d lost, %d cross-verify mismatches\n",
			rs.Hedges, rs.HedgeWins, rs.HedgeLosses, rs.HedgeMismatch)
	}
	if rs.BrownoutShifts > 0 || rs.BrownoutLevel > 0 {
		fmt.Printf("brownout: level %d now, %d transitions during the run\n",
			rs.BrownoutLevel, rs.BrownoutShifts)
	}
	if rs.ChaosActions > 0 {
		fmt.Printf("chaos: %d scripted fault actions applied\n", rs.ChaosActions)
	}
}

// printFleet reports the fleet manager's health and fairness state.
func printFleet(st darknight.FleetStats) {
	fmt.Printf("fleet: %d healthy, %d probation, %d quarantined; %d quarantine events, %d re-admissions, %d stragglers, %d speculative re-dispatches\n",
		st.Healthy, st.OnProbation, st.Quarantined,
		st.QuarantineEvents, st.Readmissions, st.StragglerEvents, st.Speculations)
	for _, d := range st.Devices {
		if d.State.String() == "healthy" && d.Faults == 0 && d.Stragglers == 0 {
			continue
		}
		fmt.Printf("  gpu %2d [%016x gen%d]: %-11s score %.2f, %d dispatches, %d faults, %d straggles, ewma %v\n",
			d.ID, d.Fingerprint, d.Generation, d.State, d.FaultScore, d.Dispatches, d.Faults, d.Stragglers, d.EWMALatency)
	}
	events := st.Events
	if len(events) > 10 {
		fmt.Printf("  ... %d earlier events elided\n", len(events)-10)
		events = events[len(events)-10:]
	}
	for _, ev := range events {
		fmt.Printf("  event %d: gpu %d %s -> %s (%s)\n", ev.Seq, ev.Device, ev.From, ev.To, ev.Reason)
	}
	if len(st.Tenants) > 1 {
		fmt.Println("  tenant shares:")
		for _, tu := range st.Tenants {
			fmt.Printf("    %-10s weight %.1f: %d gangs, %.3f device-s, normalized share %.3f\n",
				tu.Name, tu.Weight, tu.Grants, tu.DeviceSeconds, tu.Share)
		}
	}
}

func serveFlags() (*flag.FlagSet, func() (job, error)) {
	fs, d := newDeployFlags("serve")
	clients := fs.Int("clients", 8, "closed-loop client goroutines")
	return fs, func() (job, error) {
		cfg, err := d.serverConfig()
		return job{cfg, func() { serve(cfg, d, *clients) }}, err
	}
}

func serve(cfg darknight.ServerConfig, d *deployFlags, clients int) {
	if cfg.Resilience.Brownout && d.sloP99 <= 0 {
		log.Println("note: -brownout without -slo-p99; defaulting to a 20ms/0.95 objective over 2s/10s windows")
	}
	if cfg.SpeculateAfter > 0 && cfg.StragglerSlack < 1 {
		log.Println("note: -speculate rides the straggler quorum path; pass -slack >= 1 for it to engage")
	}
	chaosSched := loadChaos(d.chaos)
	srv, err := darknight.NewServer(func() *darknight.Model { return buildModel(cfg.Arch, cfg.Seed) }, cfg)
	if err != nil {
		log.Fatal(err)
	}
	defer srv.Close()

	// Graceful shutdown: SIGINT/SIGTERM stops admitting new load; in-flight
	// requests drain through Close, and the final snapshot still writes.
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()

	images := imagesOf(darknight.SyntheticDataset(256, 4, 1, 8, 8, cfg.Seed+1))

	gang := cfg.VirtualBatch + 1 + cfg.Redundancy
	fmt.Printf("serving %s privately: K=%d, gang=%d GPUs (+%d spares), %d workers (pipeline depth %d), %d clients, maxwait=%v\n",
		cfg.Arch, cfg.VirtualBatch, gang, cfg.SpareGPUs, cfg.Workers, max(cfg.PipelineDepth, 1), clients, cfg.MaxWait)
	if a := srv.MetricsAddr(); a != "" {
		fmt.Printf("metrics: http://%s/metrics (also /metrics.json, /traces, /flightrecorder)\n", a)
	}
	if chaosSched != nil {
		stopChaos, err := srv.StartChaos(chaosSched)
		if err != nil {
			log.Fatal(err)
		}
		defer stopChaos()
		fmt.Printf("chaos: playing schedule %q (%d events over %v)\n",
			chaosSched.Name, len(chaosSched.Events), chaosSched.Duration())
	}
	r := runLoad(ctx, srv, images, clients, d.duration, cfg.Tenants)
	if ctx.Err() != nil {
		fmt.Println("\ninterrupted: draining in-flight requests and finishing the report")
	}

	m := srv.Metrics()
	fmt.Printf("completed %d requests in %v (%.0f req/s)\n", r.OK, d.duration, m.Throughput)
	fmt.Printf("latency: p50 %v, p99 %v\n", m.P50, m.P99)
	fmt.Printf("batches: %d dispatched, occupancy %.2f (%d real rows, %d dummy rows)\n",
		m.Batches, m.Occupancy, m.RealRows, m.PaddedRows)
	if tot := m.Phases.Encode + m.Phases.Dispatch + m.Phases.Decode; tot > 0 {
		pct := func(d time.Duration) float64 { return 100 * float64(d) / float64(tot) }
		fmt.Printf("TEE phase breakdown over %d offloads: encode %v (%.0f%%), dispatch %v (%.0f%%), decode %v (%.0f%%)\n",
			m.Phases.Offloads,
			m.Phases.Encode, pct(m.Phases.Encode),
			m.Phases.Dispatch, pct(m.Phases.Dispatch),
			m.Phases.Decode, pct(m.Phases.Decode))
	}
	if m.Phases.Wall > 0 {
		fmt.Printf("pipeline: wall %v, overlap ratio %.2f (phase-sum / wall)\n", m.Phases.Wall, m.Overlap)
	}
	if m.Phases.Flights > 0 {
		fmt.Printf("flights: %d gang flights for %d offloads (%.2f layers/flight)\n",
			m.Phases.Flights, m.Phases.Offloads, float64(m.Phases.Offloads)/float64(m.Phases.Flights))
	}
	if m.ContinuousAdmits > 0 {
		fmt.Printf("continuous batching: %d riders admitted into flushed batches\n", m.ContinuousAdmits)
	}
	if np := m.NoisePool; np.Hits+np.Misses > 0 {
		fmt.Printf("noise pool: %.0f%% hit rate (%d precomputed, %d inline fallbacks)\n",
			100*np.HitRate(), np.Hits, np.Misses)
	}
	if len(cfg.MaliciousGPUs) > 0 {
		if cfg.Recover {
			fmt.Printf("integrity: %d requests rejected, %d served through recovery despite tampering\n", r.Integrity, r.OK)
		} else {
			fmt.Printf("integrity: %d requests rejected with tampered-GPU detection\n", r.Integrity)
		}
	}
	printResil(r, m.Resil)
	printFleet(srv.FleetStats())
	tr := srv.GPUTraffic()
	fmt.Printf("GPUs: %d jobs, %d bytes in, %d bytes out\n", tr.Jobs, tr.BytesIn, tr.BytesOut)
	if traces := srv.RecentTraces(); len(traces) > 0 {
		fmt.Println("\nsample trace (most recent completed request):")
		last := traces[len(traces)-1]
		last.Render(os.Stdout)
		last.RenderBreakdown(os.Stdout)
	}
	if d.obsDump != "" {
		if err := dumpObsArtifacts(d.obsDump, srv); err != nil {
			log.Fatalf("obs-dump: %v", err)
		}
		fmt.Printf("observability artifacts written to %s\n", d.obsDump)
	}
	if t := srv.SLO(); t != nil {
		for _, br := range t.BurnRates() {
			fmt.Printf("slo: tenant %s %s over %v: burn %.2f\n", br.Tenant, br.SLO, br.Window, br.Burn)
		}
		if n := t.Breaches(); n > 0 {
			fmt.Printf("slo: %d burn-rate threshold crossings during the run\n", n)
		}
	}
	if d.snapshot != "" {
		if err := srv.SaveSnapshot(d.snapshot); err != nil {
			log.Fatalf("snapshot: %v", err)
		}
		fmt.Printf("state snapshot written to %s (replay with: darknight replay -snapshot %s)\n", d.snapshot, d.snapshot)
	}
}

// dumpObsArtifacts writes the run's observability surfaces to dir:
// metrics.prom (Prometheus text), metrics.json (registry dump), trace.txt
// (every retained span tree + breakdown) and flightrecorder.json (the
// event ring) — the CI artifact set.
func dumpObsArtifacts(dir string, srv *darknight.Server) error {
	var prom, traces bytes.Buffer
	if err := srv.WriteMetrics(&prom); err != nil {
		return err
	}
	reg, err := srv.Observability().Registry.DumpJSON()
	if err != nil {
		return err
	}
	for _, sp := range srv.RecentTraces() {
		sp.Render(&traces)
		sp.RenderBreakdown(&traces)
		fmt.Fprintln(&traces)
	}
	events, err := json.MarshalIndent(srv.FlightRecorderDump(), "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, f := range []struct {
		name string
		data []byte
	}{{"metrics.prom", prom.Bytes()}, {"metrics.json", reg}, {"trace.txt", traces.Bytes()}, {"flightrecorder.json", events}} {
		if err := os.WriteFile(filepath.Join(dir, f.name), f.data, 0o644); err != nil {
			return err
		}
	}
	return nil
}

func loadgenFlags() (*flag.FlagSet, func() (job, error)) {
	fs, d := newDeployFlags("loadgen")
	maxClients := fs.Int("maxclients", 16, "largest client count in the sweep")
	return fs, func() (job, error) {
		cfg, err := d.serverConfig()
		return job{cfg, func() { loadgen(cfg, d, *maxClients) }}, err
	}
}

func loadgen(cfg darknight.ServerConfig, d *deployFlags, maxClients int) {
	chaosSched := loadChaos(d.chaos)
	images := imagesOf(darknight.SyntheticDataset(256, 4, 1, 8, 8, cfg.Seed+1))

	fmt.Printf("load sweep: %s, K=%d, %d workers, %v per step\n", cfg.Arch, cfg.VirtualBatch, cfg.Workers, d.duration)
	fmt.Printf("%8s %12s %12s %12s %10s %12s\n", "clients", "req/s", "p50", "p99", "occupancy", "quarantined")
	for clients := 1; clients <= maxClients; clients *= 2 {
		srv, err := darknight.NewServer(func() *darknight.Model { return buildModel(cfg.Arch, cfg.Seed) }, cfg)
		if err != nil {
			log.Fatal(err)
		}
		var stopChaos func()
		if chaosSched != nil {
			if stopChaos, err = srv.StartChaos(chaosSched); err != nil {
				log.Fatal(err)
			}
		}
		r := runLoad(context.Background(), srv, images, clients, d.duration, cfg.Tenants)
		if stopChaos != nil {
			stopChaos()
		}
		m := srv.Metrics()
		fst := srv.FleetStats()
		srv.Close()
		fmt.Printf("%8d %12.0f %12v %12v %10.2f %12d\n", clients, m.Throughput, m.P50, m.P99, m.Occupancy, fst.Quarantined)
		printResil(r, m.Resil)
		if len(cfg.Tenants) > 0 {
			for _, ts := range m.Tenants {
				var share float64
				for _, tu := range fst.Tenants {
					if tu.Name == ts.Name {
						share = tu.DeviceSeconds
					}
				}
				fmt.Printf("%8s   %-10s completed %6d, occupancy %.2f, %.3f device-s\n",
					"", ts.Name, ts.Completed, ts.Occupancy, share)
			}
		}
	}
}
