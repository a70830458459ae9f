package main

import (
	"flag"
	"math"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"darknight"
)

// TestFlagSurface pins every command's flags: each name and its default.
func TestFlagSurface(t *testing.T) {
	want := map[string][]string{
		"train": {"batch=8", "epochs=4", "fleet=false", "integrity=false", "k=2", "model=tiny", "pipeline=0",
			"seed=1", "slack=0", "slowall=false", "slowdelay=0s", "spares=0"},
		"infer":  {"integrity=false", "k=2", "model=tiny", "seed=1"},
		"verify": {"malicious=1", "seed=1"},
		"serve": {"brownout=false", "budget=0s", "chaos=", "clients=8", "continuous=false", "duration=2s",
			"faultprob=0", "faultseed=1", "flight-recorder=0", "hedge-pct=0", "integrity=false", "k=4",
			"malicious=-1", "maxwait=2ms", "metrics-addr=", "model=tiny", "obs-dump=", "pipeline=1",
			"recover=false", "retry=0", "seed=1", "shed=0", "slack=0", "slo-errors=0.001", "slo-goal=0.99",
			"slo-p99=0s", "slow=-1", "slowall=false", "slowdelay=5ms", "snapshot=", "snapshot-weights=false",
			"spares=0", "speculate=0s", "tenants=", "trace-sample=0", "workers=2"},
		"loadgen": {"budget=0s", "chaos=", "duration=1s", "faultprob=0", "faultseed=1", "hedge-pct=0", "k=4",
			"malicious=-1", "maxclients=16", "maxwait=2ms", "model=tiny", "pipeline=1", "retry=0", "seed=1",
			"shed=0", "slow=-1", "slowdelay=5ms", "tenants=", "workers=2"},
		"snapshot": {"addr=127.0.0.1:9090", "o=snapshot.json", "timeout=10s"},
		"replay":   {"model=", "seed=-1", "snapshot=", "v=false"},
	}
	if len(commands) != len(want) {
		t.Fatalf("%d commands, want %d", len(commands), len(want))
	}
	for name, flags := range commands {
		fs, _ := flags()
		var got []string
		fs.VisitAll(func(f *flag.Flag) { got = append(got, f.Name+"="+f.DefValue) })
		if !reflect.DeepEqual(got, want[name]) {
			t.Errorf("%s flags:\n got %q\nwant %q", name, got, want[name])
		}
	}
}

// configOf parses a command line and returns the config its command
// builds: a darknight.Config for train and infer, a ServerConfig for serve
// and loadgen.
func configOf(args []string) (any, error) {
	j, err := parse(args[1:], commands[args[0]])
	return j.cfg, err
}

// serving is the ServerConfig every serve and loadgen row starts from:
// the flags' defaults.
func serving(cfg darknight.Config) darknight.ServerConfig {
	cfg.VirtualBatch, cfg.Seed = 4, 1
	return darknight.ServerConfig{Config: cfg, Workers: 2, PipelineDepth: 1, MaxWait: 2 * time.Millisecond, Arch: "tiny"}
}

// TestArgsToConfig pins the config each command line builds, covering
// every rule that derives a config field from the flags. A row with err
// set must be rejected with an error containing it.
func TestArgsToConfig(t *testing.T) {
	ms := time.Millisecond
	rows := []struct {
		args string
		want func() any
		err  string
	}{
		{args: "train -slack 1", want: func() any {
			return darknight.Config{VirtualBatch: 2, Redundancy: 2, Seed: 1, StragglerSlack: 1}
		}},
		{args: "train -integrity -fleet -pipeline 2 -spares 1 -slowall -slowdelay 2ms", want: func() any {
			return darknight.Config{VirtualBatch: 2, Redundancy: 1, Seed: 1, TrainPipelineDepth: 2,
				ManagedFleet: true, SpareGPUs: 1, SlowAll: true, SlowDelay: 2 * ms}
		}},
		{args: "infer -integrity", want: func() any {
			return darknight.Config{VirtualBatch: 2, Redundancy: 1, Seed: 1}
		}},
		{args: "serve -malicious 1 -faultprob 0.3", want: func() any {
			c := serving(darknight.Config{Redundancy: 1, MaliciousGPUs: []int{1}})
			c.FaultPolicy.Probability, c.FaultPolicy.Seed = 0.3, 1
			return c
		}},
		{args: "serve -recover -slack 1", want: func() any {
			c := serving(darknight.Config{Redundancy: 3})
			c.Recover, c.StragglerSlack = true, 1
			return c
		}},
		{args: "serve -brownout", want: func() any {
			c := serving(darknight.Config{})
			c.Resilience.Brownout = true
			c.Observability.SLO = darknight.SLOConfig{
				Objectives: []darknight.SLOObjective{{Tenant: "*", LatencyTarget: 20 * ms, LatencyGoal: 0.95, ErrorBudget: 0.05}},
				Windows:    []time.Duration{2 * time.Second, 10 * time.Second},
			}
			return c
		}},
		{args: "serve -slo-p99 5ms -slo-goal 0.9", want: func() any {
			c := serving(darknight.Config{})
			c.Observability.SLO.Objectives = []darknight.SLOObjective{{Tenant: "*", LatencyTarget: 5 * ms, LatencyGoal: 0.9, ErrorBudget: 0.001}}
			return c
		}},
		// The replay job's incident capture in CI.
		{args: "serve -model tiny -k 4 -workers 2 -clients 16 -duration 2s -trace-sample 1 " +
			"-slow 2 -slowdelay 2ms -slack 1 -spares 1 -slo-p99 5ms -slo-goal 0.9 " +
			"-metrics-addr 127.0.0.1:0 -snapshot replay-artifacts/incident.json", want: func() any {
			c := serving(darknight.Config{Redundancy: 2, SlowGPUs: []int{2}, SlowDelay: 2 * ms})
			c.StragglerSlack, c.SpareGPUs = 1, 1
			c.Observability = darknight.ObservabilityConfig{Enabled: true, MetricsAddr: "127.0.0.1:0", TraceSample: 1,
				SLO: darknight.SLOConfig{Objectives: []darknight.SLOObjective{{Tenant: "*", LatencyTarget: 5 * ms, LatencyGoal: 0.9, ErrorBudget: 0.001}}}}
			return c
		}},
		// The chaos job's scripted serve in CI.
		{args: "serve -model tiny -k 2 -workers 2 -spares 4 -clients 8 -duration 2s -recover -retry 3 " +
			"-chaos testdata/chaos/crash.json -flight-recorder 2048 -snapshot chaos-artifacts/incident.json", want: func() any {
			c := serving(darknight.Config{Redundancy: 2, Chaos: true})
			c.VirtualBatch, c.SpareGPUs, c.Recover, c.Resilience.RetryMax = 2, 4, true, 3
			c.Observability = darknight.ObservabilityConfig{Enabled: true, FlightRecorderSize: 2048}
			return c
		}},
		{args: "serve -tenants gold:3,bronze:1 -integrity -continuous -speculate 1ms -slowall", want: func() any {
			c := serving(darknight.Config{Redundancy: 1, SlowDelay: 5 * ms})
			c.Tenants = []darknight.Tenant{{Name: "gold", Weight: 3}, {Name: "bronze", Weight: 1}}
			c.Continuous, c.SpeculateAfter, c.SlowAll = true, ms, true
			return c
		}},
		{args: "loadgen -malicious 1", want: func() any {
			c := serving(darknight.Config{Redundancy: 2, MaliciousGPUs: []int{1}})
			c.Recover, c.SpareGPUs = true, 2
			return c
		}},
		{args: "loadgen -chaos testdata/chaos/flap.json", want: func() any {
			c := serving(darknight.Config{Redundancy: 2, Chaos: true})
			c.Recover, c.SpareGPUs, c.Resilience.RetryMax = true, 2, 2
			return c
		}},
		{args: "serve -k 0", err: "-k 0 invalid"},
		{args: "loadgen -k 0", err: "-k 0 invalid"},
		{args: "train -k 0 -epochs 1", err: "-k 0 invalid"},
		{args: "infer -k 0", err: "-k 0 invalid"},
		{args: "serve -tenants gold:3,,gold:1", err: "empty tenant name"},
		{args: "loadgen -tenants :2", err: "empty tenant name"},
		{args: "serve -tenants gold:3,bronze,gold:1", err: `tenant "gold" named twice`},
		{args: "serve -tenants gold:three", err: "weight must be a number above 0"},
		{args: "serve -tenants gold:0", err: "weight must be a number above 0"},
		{args: "loadgen -tenants gold:-1", err: "weight must be a number above 0"},
	}
	for _, row := range rows {
		got, err := configOf(strings.Fields(row.args))
		if row.err != "" {
			if err == nil || !strings.Contains(err.Error(), row.err) {
				t.Errorf("%s: error %v, want one containing %q", row.args, err, row.err)
			}
			continue
		}
		if err != nil {
			t.Errorf("%s: %v", row.args, err)
			continue
		}
		if want := row.want(); !reflect.DeepEqual(got, want) {
			t.Errorf("%s:\n got %+v\nwant %+v", row.args, got, want)
		}
	}
}

// FuzzParseTenants: no spec panics the parser, and every spec it accepts
// names distinct, non-empty tenants with finite positive weights, and
// round-trips through its canonical form.
func FuzzParseTenants(f *testing.F) {
	for _, seed := range []string{"", "gold:3,bronze:1", "gold", " gold : 2 ,x", "gold:3,,gold:1", ":1", "a:NaN", "a:inf", "a:1e400", "a:0x1p-3"} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		tenants, err := parseTenants(spec)
		if err != nil {
			return
		}
		parts := make([]string, len(tenants))
		seen := make(map[string]bool)
		for i, tn := range tenants {
			if tn.Name == "" || seen[tn.Name] || !(tn.Weight > 0) || math.IsInf(tn.Weight, 1) {
				t.Fatalf("%q accepted as %+v", spec, tenants)
			}
			seen[tn.Name] = true
			parts[i] = tn.Name + ":" + strconv.FormatFloat(tn.Weight, 'g', -1, 64)
		}
		again, err := parseTenants(strings.Join(parts, ","))
		if err != nil || !reflect.DeepEqual(again, tenants) {
			t.Fatalf("%q parsed as %+v; its canonical form parsed as %+v, %v", spec, tenants, again, err)
		}
	})
}
