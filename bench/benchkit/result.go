package benchkit

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// SchemaVersion is bumped whenever a result file's layout changes.
const SchemaVersion = 1

// Host fingerprints where and on what a result was measured; two results are
// only comparable when their fingerprints agree on everything but the commit.
type Host struct {
	CPUModel   string `json:"cpu_model"`
	Cores      int    `json:"cores"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	// GitCommit is "unknown" outside a git checkout (the driver's copy).
	GitCommit string `json:"git_commit"`
}

// Fingerprint reads the host fingerprint.
func Fingerprint() Host {
	h := Host{
		CPUModel:   "unknown",
		Cores:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		GitCommit:  "unknown",
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if strings.HasPrefix(line, "model name") {
				if _, v, ok := strings.Cut(line, ":"); ok {
					h.CPUModel = strings.TrimSpace(v)
				}
				break
			}
		}
	}
	// Only ask git inside a checkout: elsewhere it would walk up out of the
	// working directory looking for one.
	if _, err := os.Stat(".git"); err == nil {
		if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
			h.GitCommit = strings.TrimSpace(string(out))
		}
	}
	return h
}

// Value is one reported number with its unit.
type Value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Run is the outcome of one workload run.
type Run struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Seconds  int    `json:"seconds"`
	Trace    bool   `json:"trace"`
	// Correct is false when any correctness check failed; Checks names them.
	Correct   bool     `json:"correct"`
	Checks    []string `json:"failed_checks,omitempty"`
	Attempted int64    `json:"attempted"`
	Failed    int64    `json:"failed"`
	// EndToEnd is nil on a traced run: end-to-end metrics are never taken
	// with tracing on.
	EndToEnd map[string]Value `json:"end_to_end,omitempty"`
	// PerLayer holds the counter, runtime and generator metrics on every
	// run, and the probe metrics on a traced run.
	PerLayer map[string]Value `json:"per_layer"`
	// Raw holds whole-window values and sample counts printed beside the
	// slice medians.
	Raw   map[string]Value `json:"raw,omitempty"`
	Notes []string         `json:"notes,omitempty"`
	// SpanFile names the span dump of a traced run; SelfTimes is its
	// roll-up.
	SpanFile  string     `json:"span_file,omitempty"`
	SelfTimes []SelfTime `json:"self_times,omitempty"`
}

// Result is one result file: every run of one invocation.
type Result struct {
	Schema int   `json:"schema"`
	Host   Host  `json:"host"`
	Runs   []Run `json:"runs"`
}

// Save writes the result as indented JSON, creating the directory.
func (r *Result) Save(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// LoadResult reads a result file and rejects another schema version.
func LoadResult(path string) (*Result, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r Result
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if r.Schema != SchemaVersion {
		return nil, fmt.Errorf("%s: schema %d, this build reads %d", path, r.Schema, SchemaVersion)
	}
	return &r, nil
}

// Verdict is one row of a comparison.
type Verdict struct {
	Metric, Workload string
	Base, New        float64
	// Ratio is New/Base.
	Ratio float64
	// Outcome is better, within_bound, worse or unresolved.
	Outcome string
}

// Compare judges every (end-to-end metric, workload) pair present in both
// results. Each side's value is the median of its untraced runs of that
// workload. A pair is worse when the new median is worse than the base by
// more than the metric's bound. When both sides hold at least four runs and
// either side's quartile spread exceeds the bound, the pair is unresolved —
// unless every new run reads better than every base run. Otherwise it is
// better when the new median beats the base by more than the bound, and
// within_bound when it does not.
func Compare(base, cur *Result) []Verdict {
	var out []Verdict
	for _, m := range EndToEnd {
		bw, cw := valuesByWorkload(base, m.Name), valuesByWorkload(cur, m.Name)
		var names []string
		for w := range bw {
			if len(cw[w]) > 0 {
				names = append(names, w)
			}
		}
		sort.Strings(names)
		for _, w := range names {
			out = append(out, judge(m, w, bw[w], cw[w]))
		}
	}
	return out
}

func valuesByWorkload(r *Result, metric string) map[string][]float64 {
	out := make(map[string][]float64)
	for _, run := range r.Runs {
		if v, ok := run.EndToEnd[metric]; ok && !run.Trace {
			out[run.Workload] = append(out[run.Workload], v.Value)
		}
	}
	return out
}

func judge(m Metric, workload string, base, cur []float64) Verdict {
	b, c := Median(base), Median(cur)
	v := Verdict{Metric: m.Name, Workload: workload, Base: b, New: c}
	if b != 0 {
		v.Ratio = c / b
	}
	// gain > 0 means the new side is better, as a share of the base.
	gain := 0.0
	if b != 0 {
		gain = (c - b) / b
		if m.Better == "lower" {
			gain = -gain
		}
	}
	sb, okb := Spread(base)
	sc, okc := Spread(cur)
	switch {
	case gain < -m.Bound:
		v.Outcome = "worse"
	case okb && okc && (sb > m.Bound || sc > m.Bound):
		if allBetter(m, base, cur) {
			v.Outcome = "better"
		} else {
			v.Outcome = "unresolved"
		}
	case gain > m.Bound:
		v.Outcome = "better"
	default:
		v.Outcome = "within_bound"
	}
	return v
}

// allBetter reports whether every new run reads better than every base run.
func allBetter(m Metric, base, cur []float64) bool {
	for _, c := range cur {
		for _, b := range base {
			if (m.Better == "lower" && c >= b) || (m.Better == "higher" && c <= b) {
				return false
			}
		}
	}
	return true
}
