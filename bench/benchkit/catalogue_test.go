package benchkit

import (
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

// benchmarkFile mirrors BENCHMARK.json at the root of the repo.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func loadBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	if err := json.Unmarshal(b, &f); err != nil {
		t.Fatal(err)
	}
	return f
}

// TestBenchmarkFileMatchesCatalogue holds BENCHMARK.json and the Go
// catalogue equal, and both inside the limits of the builder's contract.
func TestBenchmarkFileMatchesCatalogue(t *testing.T) {
	f := loadBenchmarkFile(t)
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(n, u, better string) {
		t.Helper()
		if !name.MatchString(n) || !unit.MatchString(u) {
			t.Errorf("%q (%q) is outside the name or unit alphabet", n, u)
		}
		if better != "higher" && better != "lower" {
			t.Errorf("%s: better = %q", n, better)
		}
		if seen[n] {
			t.Errorf("%s is used twice", n)
		}
		seen[n] = true
	}

	if len(f.Workloads) != len(Workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the catalogue", len(f.Workloads), len(Workloads))
	}
	for i, w := range Workloads {
		if f.Workloads[i].Name != w.Name || f.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json has %q / %q, the catalogue %q / %q", i, f.Workloads[i].Name, f.Workloads[i].Why, w.Name, w.Why)
		}
		if len(w.Why) > 200 {
			t.Errorf("%s: why is %d characters", w.Name, len(w.Why))
		}
		check(w.Name, "x", "lower")
	}

	if len(f.EndToEnd) != len(EndToEnd) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d in the catalogue", len(f.EndToEnd), len(EndToEnd))
	}
	setup := false
	for i, m := range EndToEnd {
		g := f.EndToEnd[i]
		if g.Name != m.Name || g.Unit != m.Unit || g.Better != m.Better || g.Bound != m.Bound {
			t.Errorf("end-to-end %d: BENCHMARK.json has %+v, the catalogue %+v", i, g, m)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v", m.Name, m.Bound)
		}
		if m.Name == "setup_s" {
			setup = m.Unit == "s" && m.Better == "lower"
			for _, o := range EndToEnd {
				if o.Bound > m.Bound {
					t.Errorf("%s has a wider bound than setup_s", o.Name)
				}
			}
		}
		check(m.Name, m.Unit, m.Better)
	}
	if !setup {
		t.Error("no setup_s metric in s, lower is better")
	}

	if len(f.PerLayer) != len(PerLayer) || len(PerLayer) > 128 {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d in the catalogue", len(f.PerLayer), len(PerLayer))
	}
	for i, m := range PerLayer {
		g := f.PerLayer[i]
		if g.Name != m.Name || g.Unit != m.Unit || g.Better != m.Better {
			t.Errorf("per-layer %d: BENCHMARK.json has %+v, the catalogue %+v", i, g, m)
		}
		if m.Source == "" || m.Moves == "" {
			t.Errorf("%s: no source or no expected movement", m.Name)
		}
		check(m.Name, m.Unit, m.Better)
	}
	for _, n := range ExactCounters {
		if !seen[n] {
			t.Errorf("exact counter %s is not a per-layer metric", n)
		}
	}
	if len(f.Paths) != 1 || f.Paths[0] != "bench" {
		t.Errorf("paths = %v", f.Paths)
	}
	if f.RunSeconds < 1 || f.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", f.RunSeconds)
	}
}

// TestQuickRunEmitsEveryMetric runs all six workloads twice in quick mode —
// untraced and traced — and checks that what they emit is exactly what
// BENCHMARK.json names, with the units the catalogue gives, and that the
// exact counters agree between the two runs. No assertion depends on how
// long anything took.
func TestQuickRunEmitsEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("runs all six workloads")
	}
	f := loadBenchmarkFile(t)
	outDir := t.TempDir()
	for _, fw := range f.Workloads {
		w, err := FindWorkload(fw.Name)
		if err != nil {
			t.Fatal(err)
		}
		opts := Options{Seed: 1, Seconds: 2, Quick: true, OutDir: outDir}
		plain, err := RunWorkload(w, opts)
		if err != nil {
			t.Fatal(err)
		}
		opts.Trace = true
		traced, err := RunWorkload(w, opts)
		if err != nil {
			t.Fatal(err)
		}
		for _, run := range []*Run{plain, traced} {
			if !run.Correct {
				t.Errorf("%s: checks failed: %v", w.Name, run.Checks)
			}
			if run.Attempted < 1 {
				t.Errorf("%s: attempted %d", w.Name, run.Attempted)
			}
		}

		if len(plain.EndToEnd) != len(f.EndToEnd) {
			t.Errorf("%s: %d end-to-end metrics emitted, BENCHMARK.json names %d", w.Name, len(plain.EndToEnd), len(f.EndToEnd))
		}
		for _, m := range f.EndToEnd {
			v, ok := plain.EndToEnd[m.Name]
			switch {
			case !ok:
				t.Errorf("%s: untraced run does not emit %s", w.Name, m.Name)
			case v.Unit != m.Unit:
				t.Errorf("%s: %s in %q, want %q", w.Name, m.Name, v.Unit, m.Unit)
			case v.Value <= 0:
				t.Errorf("%s: %s = %v, want a value that is never 0", w.Name, m.Name, v.Value)
			}
		}
		if traced.EndToEnd != nil {
			t.Errorf("%s: the traced run reports end-to-end metrics", w.Name)
		}

		if len(traced.PerLayer) != len(f.PerLayer) {
			t.Errorf("%s: %d per-layer metrics emitted, BENCHMARK.json names %d", w.Name, len(traced.PerLayer), len(f.PerLayer))
		}
		for _, m := range f.PerLayer {
			if v, ok := traced.PerLayer[m.Name]; !ok {
				t.Errorf("%s: traced run does not emit %s", w.Name, m.Name)
			} else if v.Unit != m.Unit {
				t.Errorf("%s: %s in %q, want %q", w.Name, m.Name, v.Unit, m.Unit)
			}
		}
		// The untraced run prints the counter, runtime and generator
		// metrics too; none of them may be a name BENCHMARK.json lacks.
		for n := range plain.PerLayer {
			if _, ok := traced.PerLayer[n]; !ok {
				t.Errorf("%s: untraced run emits unknown metric %s", w.Name, n)
			}
		}
		for _, n := range ExactCounters {
			if a, b := plain.PerLayer[n], traced.PerLayer[n]; a != b || a.Value == 0 {
				t.Errorf("%s: exact counter %s reads %v untraced and %v traced", w.Name, n, a.Value, b.Value)
			}
		}
		if traced.SpanFile == "" || len(traced.SelfTimes) == 0 {
			t.Errorf("%s: traced run wrote no spans", w.Name)
		} else if _, err := os.Stat(traced.SpanFile); err != nil {
			t.Errorf("%s: %v", w.Name, err)
		}
	}
}
