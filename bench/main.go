// Command bench is the repo's one benchmark: six named workloads, nine
// end-to-end metrics, a per-layer ladder and a traced run. See README.md.
//
//	go run ./bench                                  all six workloads, untraced
//	go run ./bench -trace 1                         the same plus spans and the probe ladder
//	go run ./bench -workload infer_flight -seed 3   one workload; last line is its JSON result
//	go run ./bench -compare a.json b.json           judge b against a with the benchmark's bounds
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"

	"darknight/bench/benchkit"
)

func main() {
	workload := flag.String("workload", "", "run only this workload and print its result as the last line (default: all six)")
	seed := flag.Int64("seed", 1, "generates the request images, the Poisson schedule and the tenant tags")
	seconds := flag.Int("seconds", 8, "measured window in one-second slices, the same on every commit")
	trace := flag.Int("trace", 0, "1 = traced run: harness spans, queue-depth sampler and the probe ladder; reports per-layer metrics only")
	quick := flag.Bool("quick", false, "shrink every duration (smoke run: proves every metric is emitted, bounds not applied)")
	runs := flag.Int("runs", 1, "repeat each workload this many times into one result file")
	out := flag.String("out", filepath.Join("bench", "out", "result.json"), "result file; a traced run's span files are written beside it")
	compare := flag.Bool("compare", false, "compare two result files: bench -compare base.json new.json")
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fatal("usage: bench -compare base.json new.json")
		}
		os.Exit(compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1)))
	}
	if flag.NArg() != 0 {
		fatal("unexpected argument %q", flag.Arg(0))
	}
	if *trace != 0 && *trace != 1 {
		fatal("-trace %d: want 0 or 1", *trace)
	}
	if *quick {
		*seconds = 2 // one untraced and one traced slice
	}

	todo := benchkit.Workloads
	if *workload != "" {
		w, err := benchkit.FindWorkload(*workload)
		if err != nil {
			fatal("%v", err)
		}
		todo = []benchkit.Workload{*w}
	}
	opts := benchkit.Options{Seed: *seed, Seconds: *seconds, Trace: *trace == 1, Quick: *quick,
		OutDir: filepath.Dir(*out), Log: os.Stdout}
	res := &benchkit.Result{Schema: benchkit.SchemaVersion}
	ok := true
	var last *benchkit.Run
	for i := range todo {
		for r := 0; r < *runs; r++ {
			run, err := benchkit.RunWorkload(&todo[i], opts)
			if err != nil {
				fatal("%v", err)
			}
			printRun(os.Stdout, run)
			res.Runs = append(res.Runs, *run)
			ok = ok && run.Correct
			last = run
		}
	}
	// After the runs, so the fingerprint carries the GOMAXPROCS they used.
	res.Host = benchkit.Fingerprint()
	if err := res.Save(*out); err != nil {
		fatal("%v", err)
	}
	fmt.Printf("result file: %s\n", *out)
	if *workload != "" {
		printContractLine(os.Stdout, last)
	}
	if !ok {
		os.Exit(1)
	}
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
	os.Exit(2)
}

// printRun prints every metric of a run by name with its unit.
func printRun(w io.Writer, run *benchkit.Run) {
	mode := "untraced"
	if run.Trace {
		mode = "traced"
	}
	fmt.Fprintf(w, "== %s  seed %d  %d s  %s  attempted %d  failed %d\n",
		run.Workload, run.Seed, run.Seconds, mode, run.Attempted, run.Failed)
	for _, m := range benchkit.EndToEnd {
		if v, ok := run.EndToEnd[m.Name]; ok {
			fmt.Fprintf(w, "  %-34s %14.6g %s\n", m.Name, v.Value, v.Unit)
		}
	}
	for _, name := range sortedKeys(run.Raw) {
		fmt.Fprintf(w, "  raw %-30s %14.6g %s\n", name, run.Raw[name].Value, run.Raw[name].Unit)
	}
	for _, m := range benchkit.PerLayer {
		if v, ok := run.PerLayer[m.Name]; ok {
			fmt.Fprintf(w, "  [%s] %-30s %14.6g %s\n", m.Source, m.Name, v.Value, v.Unit)
		}
	}
	if len(run.SelfTimes) > 0 {
		fmt.Fprintf(w, "  self time by span (duration minus children), spans in %s\n", run.SpanFile)
		fmt.Fprintf(w, "    %-40s %10s %14s %14s\n", "span", "count", "total_ms", "self_ms")
		for _, st := range run.SelfTimes {
			fmt.Fprintf(w, "    %-40s %10d %14.3f %14.3f\n", st.Name, st.Count, float64(st.TotalNs)/1e6, float64(st.SelfNs)/1e6)
		}
	}
	for _, n := range run.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
	for _, c := range run.Checks {
		fmt.Fprintf(w, "  CHECK FAILED: %s\n", c)
	}
}

func sortedKeys(m map[string]benchkit.Value) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// printContractLine prints the one-line JSON object the driver reads: every
// end-to-end metric on an untraced run, every per-layer metric on a traced
// one.
func printContractLine(w io.Writer, run *benchkit.Run) {
	metrics := run.EndToEnd
	if run.Trace {
		metrics = run.PerLayer
	}
	line, err := json.Marshal(struct {
		Correct   bool                      `json:"correct"`
		Attempted int64                     `json:"attempted"`
		Failed    int64                     `json:"failed"`
		Metrics   map[string]benchkit.Value `json:"metrics"`
	}{run.Correct, run.Attempted, run.Failed, metrics})
	if err != nil {
		fatal("%v", err)
	}
	fmt.Fprintf(w, "%s\n", line)
}

// compareFiles prints one row per (end-to-end metric, workload) and returns
// the exit code: 1 when any pair is worse.
func compareFiles(w io.Writer, basePath, newPath string) int {
	base, err := benchkit.LoadResult(basePath)
	if err != nil {
		fatal("%v", err)
	}
	cur, err := benchkit.LoadResult(newPath)
	if err != nil {
		fatal("%v", err)
	}
	if b, c := base.Host, cur.Host; b.CPUModel != c.CPUModel || b.GOMAXPROCS != c.GOMAXPROCS || b.GoVersion != c.GoVersion {
		fmt.Fprintf(w, "warning: host fingerprints differ (%+v vs %+v)\n", b, c)
	}
	code := 0
	fmt.Fprintf(w, "%-20s %-16s %14s %14s %8s  %s\n", "metric", "workload", "base", "new", "ratio", "verdict")
	for _, v := range benchkit.Compare(base, cur) {
		fmt.Fprintf(w, "%-20s %-16s %14.6g %14.6g %8.4f  %s\n", v.Metric, v.Workload, v.Base, v.New, v.Ratio, v.Outcome)
		if v.Outcome == "worse" {
			code = 1
		}
	}
	return code
}
