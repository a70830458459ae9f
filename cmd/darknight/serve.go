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
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"darknight"
)

// parseTenants parses "gold:3,bronze:1" into tenant configs.
func parseTenants(s string) []darknight.Tenant {
	if s == "" {
		return nil
	}
	var out []darknight.Tenant
	for _, part := range strings.Split(s, ",") {
		name, weightStr, found := strings.Cut(strings.TrimSpace(part), ":")
		w := 1.0
		if found {
			v, err := strconv.ParseFloat(weightStr, 64)
			if err != nil || v <= 0 {
				log.Fatalf("bad tenant spec %q (want name:weight)", part)
			}
			w = v
		}
		out = append(out, darknight.Tenant{Name: name, Weight: w})
	}
	return out
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
			tenant := ""
			if len(tenants) > 0 {
				tenant = tenants[c%len(tenants)].Name
			}
			for i := c; time.Now().Before(deadline) && ctx.Err() == nil; i++ {
				var err error
				if tenant == "" {
					_, err = srv.Infer(ctx, images[i%len(images)])
				} else {
					_, err = srv.InferAs(ctx, tenant, images[i%len(images)])
				}
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

func cmdServe(args []string) {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	modelName := fs.String("model", "tiny", "model architecture")
	k := fs.Int("k", 4, "virtual batch size K")
	workers := fs.Int("workers", 2, "inference pipelines (model replicas)")
	pipeline := fs.Int("pipeline", 1, "pipeline depth per worker: how many batches ride encode/dispatch/decode at once, each on its own gang")
	clients := fs.Int("clients", 8, "closed-loop client goroutines")
	duration := fs.Duration("duration", 2*time.Second, "load duration")
	maxWait := fs.Duration("maxwait", 2*time.Millisecond, "batching deadline before dummy-row padding")
	integrity := fs.Bool("integrity", false, "enable integrity verification (one extra GPU per gang)")
	malicious := fs.Int("malicious", -1, "index of a tampering GPU (-1 = none; implies -integrity)")
	faultProb := fs.Float64("faultprob", 0, "probabilistic fault injection on the malicious GPU (0 = corrupt every job)")
	faultSeed := fs.Int64("faultseed", 1, "seed of the probabilistic fault injector")
	recover := fs.Bool("recover", false, "audit-and-recover tampered batches (forces E=2 and quarantine attribution)")
	tenantsFlag := fs.String("tenants", "", "fair-share tenants, e.g. gold:3,bronze:1 (clients round-robin over them)")
	spares := fs.Int("spares", 0, "spare GPUs beyond the worker gangs (quarantine/speculation headroom)")
	slack := fs.Int("slack", 0, "straggler slack: decode after all but N coded responses (needs E >= 2)")
	continuous := fs.Bool("continuous", false, "continuous batching: flushed padded batches keep admitting riders until a worker picks them up")
	speculate := fs.Duration("speculate", 0, "speculative re-dispatch window for lagging shares (0 = off)")
	slow := fs.Int("slow", -1, "index of a deterministically slow GPU (-1 = none)")
	slowAll := fs.Bool("slowall", false, "add -slowdelay latency to every GPU (the device-latency regime -pipeline hides)")
	slowDelay := fs.Duration("slowdelay", 5*time.Millisecond, "added latency of the slow GPU(s)")
	metricsAddr := fs.String("metrics-addr", "", "HTTP listener exporting /metrics, /metrics.json, /traces, /flightrecorder (e.g. :9090; empty = off)")
	traceSample := fs.Float64("trace-sample", 0, "fraction of requests traced (0 = off, 1 = all); the last trace is printed after the run")
	flightRec := fs.Int("flight-recorder", 0, "flight-recorder event-ring capacity (0 = default 1024 when other obs flags are set)")
	obsDump := fs.String("obs-dump", "", "directory for observability artifacts after the run (metrics.prom, metrics.json, trace.txt, flightrecorder.json)")
	snapshot := fs.String("snapshot", "", "write a replayable state snapshot to this file after the run (also served live at /snapshot)")
	snapWeights := fs.Bool("snapshot-weights", false, "embed the full model weights in snapshots (self-contained, but large)")
	sloP99 := fs.Duration("slo-p99", 0, "per-tenant P99 latency objective (0 = SLO tracking off)")
	sloGoal := fs.Float64("slo-goal", 0.99, "fraction of requests that must meet -slo-p99")
	sloErrors := fs.Float64("slo-errors", 0.001, "error-budget fraction of the SLO")
	budget := fs.Duration("budget", 0, "default end-to-end deadline budget per request (0 = unbounded)")
	retry := fs.Int("retry", 0, "re-dispatch a failed batch onto a fresh gang up to N times")
	hedgePct := fs.Float64("hedge-pct", 0, "hedge a batch slower than this latency percentile, e.g. 0.95, on a spare lane and gang (0 = off)")
	shed := fs.Int("shed", 0, "shed requests with a typed error when the queue holds >= N (0 = off)")
	brownout := fs.Bool("brownout", false, "SLO-driven brownout degradation (uses -slo-p99, or a default objective)")
	chaosPath := fs.String("chaos", "", "play this chaos schedule (JSON) against the fleet during the load")
	seed := fs.Int64("seed", 1, "random seed")
	fs.Parse(args)

	if *k < 1 {
		log.Fatalf("serve: -k %d invalid, need K >= 1", *k)
	}
	redundancy := 0
	if *integrity || *malicious >= 0 {
		redundancy = 1
	}
	if *recover || *slack > 0 {
		redundancy = 2
	}
	if *recover && *slack > 0 {
		// Straggler slack spends redundant equations; recovery still needs
		// two live checks in every quorum to attribute a culprit.
		redundancy = 2 + *slack
	}
	tenants := parseTenants(*tenantsFlag)
	cfg := darknight.ServerConfig{
		Config: darknight.Config{
			VirtualBatch: *k,
			Redundancy:   redundancy,
			Seed:         *seed,
		},
		Workers:        *workers,
		PipelineDepth:  *pipeline,
		MaxWait:        *maxWait,
		Tenants:        tenants,
		SpareGPUs:      *spares,
		Recover:        *recover,
		StragglerSlack: *slack,
		Continuous:     *continuous,
		SpeculateAfter: *speculate,
		Observability: darknight.ObservabilityConfig{
			Enabled:            *obsDump != "" || *snapshot != "",
			MetricsAddr:        *metricsAddr,
			TraceSample:        *traceSample,
			FlightRecorderSize: *flightRec,
			SnapshotWeights:    *snapWeights,
		},
		Resilience: darknight.ResilienceConfig{
			Budget:        *budget,
			RetryMax:      *retry,
			HedgeQuantile: *hedgePct,
			ShedQueue:     *shed,
			Brownout:      *brownout,
		},
		Arch: *modelName,
	}
	cfg.Chaos = *chaosPath != ""
	if *sloP99 > 0 {
		cfg.Observability.SLO = darknight.SLOConfig{
			Objectives: []darknight.SLOObjective{{
				Tenant:        "*",
				LatencyTarget: *sloP99,
				LatencyGoal:   *sloGoal,
				ErrorBudget:   *sloErrors,
			}},
		}
	}
	if *brownout && *sloP99 <= 0 {
		// Brownout consumes SLO breach events; give it a responsive default
		// objective (and short windows) when the user set none.
		log.Println("note: -brownout without -slo-p99; defaulting to a 20ms/0.95 objective over 2s/10s windows")
		cfg.Observability.SLO = darknight.SLOConfig{
			Objectives: []darknight.SLOObjective{{
				Tenant:        "*",
				LatencyTarget: 20 * time.Millisecond,
				LatencyGoal:   0.95,
				ErrorBudget:   0.05,
			}},
			Windows: []time.Duration{2 * time.Second, 10 * time.Second},
		}
	}
	if *malicious >= 0 {
		cfg.MaliciousGPUs = []int{*malicious}
		if *faultProb > 0 {
			cfg.FaultPolicy.Probability = *faultProb
			cfg.FaultPolicy.Seed = *faultSeed
		}
	}
	if *slow >= 0 {
		cfg.SlowGPUs = []int{*slow}
		cfg.SlowDelay = *slowDelay
	}
	if *slowAll {
		cfg.SlowAll = true
		cfg.SlowDelay = *slowDelay
	}
	if *speculate > 0 && *slack < 1 {
		log.Println("note: -speculate rides the straggler quorum path; pass -slack >= 1 for it to engage")
	}
	var chaosSched *darknight.ChaosSchedule
	if *chaosPath != "" {
		var err error
		chaosSched, err = darknight.LoadChaosSchedule(*chaosPath)
		if err != nil {
			log.Fatal(err)
		}
	}
	srv, err := darknight.NewServer(func() *darknight.Model { return buildModel(*modelName, *seed) }, cfg)
	if err != nil {
		log.Fatal(err)
	}
	defer srv.Close()

	// Graceful shutdown: SIGINT/SIGTERM stops admitting new load; in-flight
	// requests drain through Close, and the final snapshot still writes.
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()

	data := darknight.SyntheticDataset(256, 4, 1, 8, 8, *seed+1)
	images := make([][]float64, len(data))
	for i := range images {
		images[i] = data[i].Image
	}

	gang := *k + 1 + redundancy
	fmt.Printf("serving %s privately: K=%d, gang=%d GPUs (+%d spares), %d workers (pipeline depth %d), %d clients, maxwait=%v\n",
		*modelName, *k, gang, *spares, *workers, max(*pipeline, 1), *clients, *maxWait)
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
	r := runLoad(ctx, srv, images, *clients, *duration, tenants)
	if ctx.Err() != nil {
		fmt.Println("\ninterrupted: draining in-flight requests and finishing the report")
	}
	ok, integ := r.OK, r.Integrity

	m := srv.Metrics()
	fmt.Printf("completed %d requests in %v (%.0f req/s)\n", ok, *duration, m.Throughput)
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
	if *malicious >= 0 {
		if *recover {
			fmt.Printf("integrity: %d requests rejected, %d served through recovery despite tampering\n", integ, ok)
		} else {
			fmt.Printf("integrity: %d requests rejected with tampered-GPU detection\n", integ)
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
	if *obsDump != "" {
		if err := dumpObsArtifacts(*obsDump, srv); err != nil {
			log.Fatalf("obs-dump: %v", err)
		}
		fmt.Printf("observability artifacts written to %s\n", *obsDump)
	}
	if t := srv.SLO(); t != nil {
		for _, br := range t.BurnRates() {
			fmt.Printf("slo: tenant %s %s over %v: burn %.2f\n", br.Tenant, br.SLO, br.Window, br.Burn)
		}
		if n := t.Breaches(); n > 0 {
			fmt.Printf("slo: %d burn-rate threshold crossings during the run\n", n)
		}
	}
	if *snapshot != "" {
		if err := srv.SaveSnapshot(*snapshot); err != nil {
			log.Fatalf("snapshot: %v", err)
		}
		fmt.Printf("state snapshot written to %s (replay with: darknight replay -snapshot %s)\n", *snapshot, *snapshot)
	}
}

// dumpObsArtifacts writes the run's observability surfaces to dir:
// metrics.prom (Prometheus text), metrics.json (registry dump), trace.txt
// (every retained span tree + breakdown) and flightrecorder.json (the
// event ring) — the CI artifact set.
func dumpObsArtifacts(dir string, srv *darknight.Server) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	var prom bytes.Buffer
	if err := srv.WriteMetrics(&prom); err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, "metrics.prom"), prom.Bytes(), 0o644); err != nil {
		return err
	}
	reg, err := srv.Observability().Registry.DumpJSON()
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, "metrics.json"), reg, 0o644); err != nil {
		return err
	}
	var traces bytes.Buffer
	for _, sp := range srv.RecentTraces() {
		sp.Render(&traces)
		sp.RenderBreakdown(&traces)
		fmt.Fprintln(&traces)
	}
	if err := os.WriteFile(filepath.Join(dir, "trace.txt"), traces.Bytes(), 0o644); err != nil {
		return err
	}
	events, err := json.MarshalIndent(srv.FlightRecorderDump(), "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "flightrecorder.json"), events, 0o644)
}

func cmdLoadgen(args []string) {
	fs := flag.NewFlagSet("loadgen", flag.ExitOnError)
	modelName := fs.String("model", "tiny", "model architecture")
	k := fs.Int("k", 4, "virtual batch size K")
	workers := fs.Int("workers", 2, "inference pipelines")
	pipeline := fs.Int("pipeline", 1, "pipeline depth per worker")
	maxClients := fs.Int("maxclients", 16, "largest client count in the sweep")
	duration := fs.Duration("duration", time.Second, "load duration per step")
	maxWait := fs.Duration("maxwait", 2*time.Millisecond, "batching deadline")
	tenantsFlag := fs.String("tenants", "", "fair-share tenants, e.g. gold:3,bronze:1 (clients round-robin over them)")
	malicious := fs.Int("malicious", -1, "index of a tampering GPU (-1 = none; forces E=2 + recovery)")
	faultProb := fs.Float64("faultprob", 0, "probabilistic fault injection on the malicious GPU (0 = corrupt every job)")
	faultSeed := fs.Int64("faultseed", 1, "seed of the probabilistic fault injector")
	slow := fs.Int("slow", -1, "index of a deterministically slow GPU (-1 = none)")
	slowDelay := fs.Duration("slowdelay", 5*time.Millisecond, "added latency of the slow GPU")
	chaosPath := fs.String("chaos", "", "play this chaos schedule (JSON) during every step; implies recovery + retry headroom")
	budget := fs.Duration("budget", 0, "default end-to-end deadline budget per request (0 = unbounded)")
	retry := fs.Int("retry", 0, "re-dispatch a failed batch onto a fresh gang up to N times")
	hedgePct := fs.Float64("hedge-pct", 0, "hedge a batch slower than this latency percentile (0 = off)")
	shed := fs.Int("shed", 0, "shed requests with a typed error when the queue holds >= N (0 = off)")
	seed := fs.Int64("seed", 1, "random seed")
	fs.Parse(args)

	if *k < 1 {
		log.Fatalf("loadgen: -k %d invalid, need K >= 1", *k)
	}
	var chaosSched *darknight.ChaosSchedule
	if *chaosPath != "" {
		var err error
		chaosSched, err = darknight.LoadChaosSchedule(*chaosPath)
		if err != nil {
			log.Fatal(err)
		}
		if *retry == 0 {
			*retry = 2 // a crashed gang's batch deserves a fresh one
		}
	}
	tenants := parseTenants(*tenantsFlag)
	data := darknight.SyntheticDataset(256, 4, 1, 8, 8, *seed+1)
	images := make([][]float64, len(data))
	for i := range images {
		images[i] = data[i].Image
	}

	fmt.Printf("load sweep: %s, K=%d, %d workers, %v per step\n", *modelName, *k, *workers, *duration)
	fmt.Printf("%8s %12s %12s %12s %10s %12s\n", "clients", "req/s", "p50", "p99", "occupancy", "quarantined")
	for clients := 1; clients <= *maxClients; clients *= 2 {
		cfg := darknight.ServerConfig{
			Config:        darknight.Config{VirtualBatch: *k, Seed: *seed},
			Workers:       *workers,
			PipelineDepth: *pipeline,
			MaxWait:       *maxWait,
			Tenants:       tenants,
			Resilience: darknight.ResilienceConfig{
				Budget:        *budget,
				RetryMax:      *retry,
				HedgeQuantile: *hedgePct,
				ShedQueue:     *shed,
			},
		}
		if *malicious >= 0 {
			// Fault injection in a sweep wants the service to survive:
			// attribute + recover + quarantine rather than fail requests.
			cfg.Redundancy = 2
			cfg.Recover = true
			cfg.SpareGPUs = 2
			cfg.MaliciousGPUs = []int{*malicious}
			if *faultProb > 0 {
				cfg.FaultPolicy.Probability = *faultProb
				cfg.FaultPolicy.Seed = *faultSeed
			}
		}
		if *slow >= 0 {
			cfg.SlowGPUs = []int{*slow}
			cfg.SlowDelay = *slowDelay
		}
		if chaosSched != nil {
			// Chaos survival needs the same headroom: attribution + recovery
			// so crashed/tampering devices quarantine instead of failing
			// clients, and spares to refill their gangs.
			cfg.Chaos = true
			if cfg.Redundancy < 2 {
				cfg.Redundancy = 2
			}
			cfg.Recover = true
			if cfg.SpareGPUs < 2 {
				cfg.SpareGPUs = 2
			}
		}
		srv, err := darknight.NewServer(func() *darknight.Model { return buildModel(*modelName, *seed) }, cfg)
		if err != nil {
			log.Fatal(err)
		}
		var stopChaos func()
		if chaosSched != nil {
			if stopChaos, err = srv.StartChaos(chaosSched); err != nil {
				log.Fatal(err)
			}
		}
		r := runLoad(context.Background(), srv, images, clients, *duration, tenants)
		if stopChaos != nil {
			stopChaos()
		}
		m := srv.Metrics()
		fst := srv.FleetStats()
		srv.Close()
		fmt.Printf("%8d %12.0f %12v %12v %10.2f %12d\n", clients, m.Throughput, m.P50, m.P99, m.Occupancy, fst.Quarantined)
		printResil(r, m.Resil)
		if len(tenants) > 0 {
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
