package main

import (
	"cmp"
	"flag"
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"
	"time"

	"darknight"
)

// deployFlags holds the values of the deployment flags. Each is defined
// once, in newDeployFlags, for every command that takes it. A flag that
// sets a config field binds to it in sc; config and serverConfig derive
// the rest by one set of rules. A flag a command does not take keeps its
// off value.
type deployFlags struct {
	cmd string
	sc  darknight.ServerConfig

	integrity, fleet                  bool
	malicious, slow                   int // device indexes; -1 = none
	faultProb                         float64
	faultSeed                         int64
	slowDelay, duration, sloP99       time.Duration
	sloGoal, sloErrors                float64
	tenants, chaos, obsDump, snapshot string // tenant spec, chaos schedule, artifact directory and snapshot file
}

// newDeployFlags returns a flag set for the named command (train, infer,
// serve or loadgen) with the deployment flags it takes registered, and
// the values they bind to.
func newDeployFlags(cmd string) (*flag.FlagSet, *deployFlags) {
	fs, d := newFlagSet(cmd), &deployFlags{cmd: cmd, malicious: -1, slow: -1}
	sc, obs, res := &d.sc, &d.sc.Observability, &d.sc.Resilience
	takes := func(cmds ...string) bool { return slices.Contains(cmds, cmd) }
	// The defaults that differ between commands.
	k, pipeline, slowDelay, duration := 4, 1, 5*time.Millisecond, time.Second
	if takes("train", "infer") {
		k, pipeline, slowDelay = 2, 0, 0
	}
	if cmd == "serve" {
		duration = 2 * time.Second
	}

	fs.StringVar(&sc.Arch, "model", "tiny", "model architecture")
	fs.IntVar(&sc.VirtualBatch, "k", k, "virtual batch size K")
	fs.Int64Var(&sc.Seed, "seed", 1, "random seed")
	if takes("train", "infer", "serve") {
		fs.BoolVar(&d.integrity, "integrity", false, "enable integrity verification (one extra GPU per gang; derives E >= 1)")
	}
	if takes("train", "serve", "loadgen") {
		fs.IntVar(&sc.PipelineDepth, "pipeline", pipeline, "pipeline depth per lane or worker: how many virtual batches ride encode/dispatch/decode at once, each on its own gang (0 and 1 both mean one)")
		fs.DurationVar(&d.slowDelay, "slowdelay", slowDelay, "added per-dispatch latency of slow GPUs (0 = 5ms)")
	}
	if takes("train", "serve") {
		fs.IntVar(&sc.SpareGPUs, "spares", 0, "spare GPUs beyond the gang sizing (quarantine/speculation headroom)")
		fs.IntVar(&sc.StragglerSlack, "slack", 0, "straggler slack: decode after all but N coded responses (derives E >= 2)")
		fs.BoolVar(&sc.SlowAll, "slowall", false, "add -slowdelay latency to every GPU (the device-latency regime -pipeline hides)")
	}
	if takes("train") {
		fs.BoolVar(&d.fleet, "fleet", false, "route dispatch through the self-healing fleet manager (per-batch gang grants, quarantine), at any -pipeline depth")
	}
	if takes("serve", "loadgen") {
		fs.IntVar(&sc.Workers, "workers", 2, "inference pipelines (model replicas)")
		fs.DurationVar(&d.duration, "duration", duration, "load duration (per sweep step for loadgen)")
		fs.DurationVar(&sc.MaxWait, "maxwait", 2*time.Millisecond, "batching deadline before dummy-row padding")
		fs.StringVar(&d.tenants, "tenants", "", "fair-share tenants, e.g. gold:3,bronze:1 (clients round-robin over them)")
		fs.IntVar(&d.malicious, "malicious", -1, "index of a tampering GPU (-1 = none; derives E >= 1)")
		fs.Float64Var(&d.faultProb, "faultprob", 0, "probabilistic fault injection on the malicious GPU (0 = corrupt every job)")
		fs.Int64Var(&d.faultSeed, "faultseed", 1, "seed of the probabilistic fault injector")
		fs.IntVar(&d.slow, "slow", -1, "index of a deterministically slow GPU (-1 = none)")
		fs.StringVar(&d.chaos, "chaos", "", "play this chaos schedule (JSON) against the fleet during the load")
		fs.DurationVar(&res.Budget, "budget", 0, "default end-to-end deadline budget per request (0 = unbounded)")
		fs.IntVar(&res.RetryMax, "retry", 0, "re-dispatch a failed batch onto a fresh gang up to N times")
		fs.Float64Var(&res.HedgeQuantile, "hedge-pct", 0, "hedge a batch slower than this latency percentile, e.g. 0.95, on a spare lane and gang (0 = off)")
		fs.IntVar(&res.ShedQueue, "shed", 0, "shed requests with a typed error when the queue holds >= N (0 = off)")
	}
	if takes("serve") {
		fs.BoolVar(&sc.Recover, "recover", false, "audit-and-recover tampered batches, quarantining the attributed device (derives E >= 2)")
		fs.BoolVar(&sc.Continuous, "continuous", false, "continuous batching: flushed padded batches keep admitting riders until a worker picks them up")
		fs.DurationVar(&sc.SpeculateAfter, "speculate", 0, "speculative re-dispatch window for lagging shares (0 = off)")
		fs.StringVar(&obs.MetricsAddr, "metrics-addr", "", "HTTP listener exporting /metrics, /metrics.json, /traces, /flightrecorder (e.g. :9090; empty = off)")
		fs.Float64Var(&obs.TraceSample, "trace-sample", 0, "fraction of requests traced (0 = off, 1 = all); the last trace is printed after the run")
		fs.IntVar(&obs.FlightRecorderSize, "flight-recorder", 0, "flight-recorder event-ring capacity (0 = default 1024 when other obs flags are set)")
		fs.StringVar(&d.obsDump, "obs-dump", "", "directory for observability artifacts after the run (metrics.prom, metrics.json, trace.txt, flightrecorder.json)")
		fs.StringVar(&d.snapshot, "snapshot", "", "write a replayable state snapshot to this file after the run (also served live at /snapshot)")
		fs.BoolVar(&obs.SnapshotWeights, "snapshot-weights", false, "embed the full model weights in snapshots (self-contained, but large)")
		fs.DurationVar(&d.sloP99, "slo-p99", 0, "per-tenant P99 latency objective (0 = SLO tracking off)")
		fs.Float64Var(&d.sloGoal, "slo-goal", 0.99, "fraction of requests that must meet -slo-p99")
		fs.Float64Var(&d.sloErrors, "slo-errors", 0.001, "error-budget fraction of the SLO")
		fs.BoolVar(&res.Brownout, "brownout", false, "SLO-driven brownout degradation (uses -slo-p99, or a default objective)")
	}
	return fs, d
}

// headroom reports whether the deployment gets survival headroom:
// loadgen's sweep under -malicious or -chaos charts a surviving service,
// so it recovers, keeps at least two spares and, under chaos, retries a
// crashed gang's batch twice.
func (d *deployFlags) headroom() bool {
	return d.cmd == "loadgen" && (d.malicious >= 0 || d.chaos != "")
}

// redundancy is the one rule that derives E: integrity checking (or a
// tampering GPU) asks for one redundant equation; recovery or straggler
// slack for two; both for two plus the slack, since slack spends
// equations and recovery still needs two live checks in every quorum to
// attribute a culprit.
func redundancy(integrity, recover bool, slack int) int {
	switch {
	case recover && slack > 0:
		return 2 + slack
	case recover || slack > 0:
		return 2
	case integrity:
		return 1
	}
	return 0
}

// config derives the deployment's Config: K and the seed as bound, E, and
// the tampering, slow and chaos markings of its devices.
func (d *deployFlags) config() (darknight.Config, error) {
	k, seed := d.sc.VirtualBatch, d.sc.Seed
	if k < 1 {
		return darknight.Config{}, fmt.Errorf("%s: -k %d invalid, need K >= 1", d.cmd, k)
	}
	cfg := darknight.Config{
		VirtualBatch: k,
		Redundancy:   redundancy(d.integrity || d.malicious >= 0, d.sc.Recover || d.headroom(), d.sc.StragglerSlack),
		Seed:         seed,
		Chaos:        d.chaos != "",
	}
	if d.malicious >= 0 {
		cfg.MaliciousGPUs = []int{d.malicious}
		if d.faultProb > 0 {
			cfg.FaultPolicy.Probability, cfg.FaultPolicy.Seed = d.faultProb, d.faultSeed
		}
	}
	if d.slow >= 0 {
		cfg.SlowGPUs = []int{d.slow}
	}
	if d.slow >= 0 || d.sc.SlowAll {
		cfg.SlowDelay = d.slowDelay
	}
	return cfg, nil
}

// serverConfig derives a serving deployment: the serving, fleet,
// observability and resilience fields as bound around config's Config,
// the tenants, the SLO, and loadgen's headroom.
func (d *deployFlags) serverConfig() (darknight.ServerConfig, error) {
	sc := d.sc
	var err error
	if sc.Config, err = d.config(); err != nil {
		return sc, err
	}
	if sc.Tenants, err = parseTenants(d.tenants); err != nil {
		return sc, fmt.Errorf("%s: %w", d.cmd, err)
	}
	if d.headroom() {
		sc.Recover, sc.SpareGPUs = true, max(sc.SpareGPUs, 2)
		if d.chaos != "" {
			sc.Resilience.RetryMax = cmp.Or(sc.Resilience.RetryMax, 2)
		}
	}
	sc.Observability.Enabled = d.obsDump != "" || d.snapshot != ""
	switch {
	case d.sloP99 > 0:
		sc.Observability.SLO.Objectives = []darknight.SLOObjective{{Tenant: "*", LatencyTarget: d.sloP99, LatencyGoal: d.sloGoal, ErrorBudget: d.sloErrors}}
	case sc.Resilience.Brownout:
		// Brownout consumes SLO breach events; give it a responsive default
		// objective (and short windows) when the user set none.
		sc.Observability.SLO = darknight.SLOConfig{
			Objectives: []darknight.SLOObjective{{Tenant: "*", LatencyTarget: 20 * time.Millisecond, LatencyGoal: 0.95, ErrorBudget: 0.05}},
			Windows:    []time.Duration{2 * time.Second, 10 * time.Second},
		}
	}
	return sc, nil
}

// parseTenants parses a tenant spec such as "gold:3,bronze:1" (a bare
// name weighs 1). It rejects an empty name, a repeated one, and a weight
// that is not a finite number above 0.
func parseTenants(s string) ([]darknight.Tenant, error) {
	if s == "" {
		return nil, nil
	}
	var out []darknight.Tenant
	for _, part := range strings.Split(s, ",") {
		name, weight, found := strings.Cut(part, ":")
		name = strings.TrimSpace(name)
		w := 1.0
		if found {
			v, err := strconv.ParseFloat(strings.TrimSpace(weight), 64)
			if err != nil || !(v > 0) || math.IsInf(v, 1) {
				return nil, fmt.Errorf("bad tenant spec %q: weight must be a number above 0", part)
			}
			w = v
		}
		switch {
		case name == "":
			return nil, fmt.Errorf("bad tenant spec %q: empty tenant name", part)
		case slices.ContainsFunc(out, func(t darknight.Tenant) bool { return t.Name == name }):
			return nil, fmt.Errorf("bad tenant spec %q: tenant %q named twice", part, name)
		}
		out = append(out, darknight.Tenant{Name: name, Weight: w})
	}
	return out, nil
}
