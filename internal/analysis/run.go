package analysis

import (
	"fmt"

	"darknight/internal/analysis/load"
)

// PackageResult is the outcome of running the analyzer suite on one
// package.
type PackageResult struct {
	Pkg *load.Package
	// Results maps analyzer name to the value its Run returned (for
	// cross-package aggregation, e.g. metricname registration coverage).
	Results map[string]any
	// Diagnostics holds every finding, suppressed ones included (marked).
	Diagnostics []Diagnostic
}

// Run executes every analyzer on every package, applying //lint:ignore
// suppressions. Analyzer errors (not findings) abort the run.
func Run(pkgs []*load.Package, analyzers []*Analyzer) ([]PackageResult, error) {
	out := make([]PackageResult, 0, len(pkgs))
	for _, pkg := range pkgs {
		pr := PackageResult{Pkg: pkg, Results: make(map[string]any)}
		sup, malformed := parseSuppressions(pkg.Fset, pkg.Files)
		pr.Diagnostics = append(pr.Diagnostics, malformed...)
		for _, a := range analyzers {
			pass := &Pass{
				Analyzer:  a,
				Fset:      pkg.Fset,
				Files:     pkg.Files,
				Pkg:       pkg.Types,
				TypesInfo: pkg.Info,
			}
			res, err := a.Run(pass)
			if err != nil {
				return nil, fmt.Errorf("%s: %s: %v", pkg.ImportPath, a.Name, err)
			}
			pr.Results[a.Name] = res
			pr.Diagnostics = append(pr.Diagnostics, pass.diags...)
		}
		pr.Diagnostics = applySuppressions(pr.Diagnostics, sup)
		sortDiags(pr.Diagnostics)
		out = append(out, pr)
	}
	return out, nil
}

// Active filters a result set down to the findings that still demand
// action (unsuppressed).
func Active(results []PackageResult) []Diagnostic {
	var out []Diagnostic
	for _, pr := range results {
		for _, d := range pr.Diagnostics {
			if !d.Suppressed {
				out = append(out, d)
			}
		}
	}
	return out
}

// RunFiles executes the analyzers on one pre-typechecked package (the
// corpus/mutation path) and returns its findings with suppressions
// applied.
func RunFiles(pkg *load.Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	res, err := Run([]*load.Package{pkg}, analyzers)
	if err != nil {
		return nil, err
	}
	return res[0].Diagnostics, nil
}

// Suppress applies the package's //lint:ignore directives to findings a
// whole-tree join reports after Run (testonly's Unused).
func Suppress(pkg *load.Package, diags []Diagnostic) []Diagnostic {
	sup, _ := parseSuppressions(pkg.Fset, pkg.Files)
	return applySuppressions(diags, sup)
}
