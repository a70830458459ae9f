package testonly_test

import (
	"testing"

	"darknight/internal/analysis"
	"darknight/internal/analysis/atest"
	"darknight/internal/analysis/testonly"
)

// TestCorpus runs the analyzer over a five-package corpus: lib declares,
// app uses, bench uses without counting, support is test support, and so
// is kernels, which only support imports.
func TestCorpus(t *testing.T) {
	diags := atest.RunTree(t, testonly.Analyzer, testonly.Unused, "testonly", "corpus",
		"internal/kernels", "internal/support", "internal/lib", "app", "bench")
	for _, d := range diags {
		if d.Suppressed && d.Analyzer == testonly.Analyzer.Name {
			return
		}
	}
	t.Error("the blessed case produced no suppressed finding")
}

// TestVetUnitReportsNothing pins the vet-tool contract: one package at a
// time, the analyzer cannot see the module's uses, so it reports nothing.
func TestVetUnitReportsNothing(t *testing.T) {
	pkg, err := atest.Env(t).LoadDir(atest.CorpusDir(t, "testonly/internal/lib"), "corpus/internal/lib")
	if err != nil {
		t.Fatal(err)
	}
	diags, err := analysis.RunFiles(pkg, []*analysis.Analyzer{testonly.Analyzer})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Errorf("unexpected finding in single-unit mode: %s", d)
	}
}
