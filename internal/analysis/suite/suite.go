// Package suite wires the darknightlint analyzers into one list so the
// CLI, the vet unitchecker and the in-repo regression tests run exactly
// the same checks.
package suite

import (
	"darknight/internal/analysis"
	"darknight/internal/analysis/ctxflow"
	"darknight/internal/analysis/hotpathalloc"
	"darknight/internal/analysis/lazyterms"
	"darknight/internal/analysis/leasepair"
	"darknight/internal/analysis/metricname"
	"darknight/internal/analysis/testonly"
)

// All returns the full analyzer suite in reporting order.
func All() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		ctxflow.Analyzer,
		hotpathalloc.Analyzer,
		lazyterms.Analyzer,
		leasepair.Analyzer,
		metricname.Analyzer,
		testonly.Analyzer,
	}
}

// ByName returns the named analyzers (comma-separated list of names),
// or All() when names is empty. Unknown names return nil.
func ByName(names []string) []*analysis.Analyzer {
	if len(names) == 0 {
		return All()
	}
	byName := make(map[string]*analysis.Analyzer)
	for _, a := range All() {
		byName[a.Name] = a
	}
	var out []*analysis.Analyzer
	for _, n := range names {
		a, ok := byName[n]
		if !ok {
			return nil
		}
		out = append(out, a)
	}
	return out
}

// MetricSets extracts metricname's per-package seen-name sets from a run
// (for the Unregistered coverage check).
func MetricSets(results []analysis.PackageResult) []map[string]bool {
	var out []map[string]bool
	for _, pr := range results {
		if m, ok := pr.Results[metricname.Analyzer.Name].(map[string]bool); ok {
			out = append(out, m)
		}
	}
	return out
}
