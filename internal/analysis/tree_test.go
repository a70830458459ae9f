package analysis_test

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"darknight/internal/analysis"
	"darknight/internal/analysis/atest"
	"darknight/internal/analysis/lazyterms"
	"darknight/internal/analysis/leasepair"
	"darknight/internal/analysis/metricname"
	"darknight/internal/analysis/suite"
)

// TestTreeComesOutClean is the contract the CI lint job enforces: the
// full analyzer suite over the whole module reports zero unsuppressed
// findings, and every canonical metric family is registered somewhere.
// A new finding means either a real bug (fix it) or a deliberate
// exception (suppress it with //lint:ignore and a reason) — never a
// green build with a known violation.
func TestTreeComesOutClean(t *testing.T) {
	pkgs, err := atest.Env(t).Packages()
	if err != nil {
		t.Fatal(err)
	}
	results, err := analysis.Run(pkgs, suite.All())
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range analysis.Active(results) {
		t.Errorf("%s", d)
	}
	for _, name := range metricname.Unregistered(suite.MetricSets(results)) {
		t.Errorf("canonical metric family %s is never registered by any package", name)
	}
}

// TestSeededLazyRegressionIsCaught un-guards the real combine kernels —
// the exact mutation lazyterms exists to stop — and asserts the analyzer
// fires. The mutation strips every Budget tick from a copy of
// internal/field and typechecks the copy as its own package; if this
// test fails, the analyzer has gone blind and the lint gate is
// decorative.
func TestSeededLazyRegressionIsCaught(t *testing.T) {
	env := atest.Env(t)
	srcDir := filepath.Join(env.ModuleDir, "internal", "field")
	dstDir := t.TempDir()
	tickRe := regexp.MustCompile(`terms\.Tick[12]\([^)]*\)`)
	ents, err := os.ReadDir(srcDir)
	if err != nil {
		t.Fatal(err)
	}
	mutations := 0
	for _, ent := range ents {
		name := ent.Name()
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		data, err := os.ReadFile(filepath.Join(srcDir, name))
		if err != nil {
			t.Fatal(err)
		}
		src := string(data)
		if m := tickRe.FindAllString(src, -1); len(m) > 0 {
			mutations += len(m)
			// Keep the Budget variable used so the mutant still
			// typechecks (analysis needs types).
			src = tickRe.ReplaceAllString(src, "_ = terms")
		}
		if err := os.WriteFile(filepath.Join(dstDir, name), []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if mutations == 0 {
		t.Fatal("seed mutation found no Budget ticks to strip from internal/field; the kernels changed shape — update this test")
	}
	// The mutant keeps an import path ending in internal/field so the
	// analyzer's package-identity suffix match treats it as the real
	// field package.
	pkg, err := env.LoadDir(dstDir, "darknightmutant/internal/field")
	if err != nil {
		t.Fatalf("typechecking the mutated field package: %v", err)
	}
	diags, err := analysis.RunFiles(pkg, []*analysis.Analyzer{lazyterms.Analyzer})
	if err != nil {
		t.Fatal(err)
	}
	active := 0
	for _, d := range diags {
		if !d.Suppressed {
			active++
		}
	}
	if active < mutations {
		t.Errorf("stripped %d Budget ticks but lazyterms reported only %d findings: the analyzer missed an un-guarded lazy loop", mutations, active)
	}
}

// TestSeededLeaseRegressionIsCaught drops the Release (a grant) or the End
// (a block flight) from a known-balanced corpus function and asserts
// leasepair notices — the second seeded direction, run against the real
// fleet types.
func TestSeededLeaseRegressionIsCaught(t *testing.T) {
	env := atest.Env(t)
	src, err := os.ReadFile(filepath.Join(atest.CorpusDir(t, "leasepair"), "corpus.go"))
	if err != nil {
		t.Fatal(err)
	}
	for _, mut := range []struct{ name, drop, with string }{
		{"release", "g.Release()", "_ = g"},         // directRelease's grant leaks
		{"end", "defer bf.End()", "_ = bf.Slots()"}, // flightEnded's flight leaks
	} {
		mutated := strings.Replace(string(src), mut.drop, mut.with, 1)
		if mutated == string(src) {
			t.Fatalf("corpus shape changed: no %s to drop — update this test", mut.drop)
		}
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "corpus.go"), []byte(mutated), 0o644); err != nil {
			t.Fatal(err)
		}
		pkg, err := env.LoadDir(dir, "darknightlint/corpus/leasemutant"+mut.name)
		if err != nil {
			t.Fatalf("typechecking the mutated corpus: %v", err)
		}
		diags, err := analysis.RunFiles(pkg, []*analysis.Analyzer{leasepair.Analyzer})
		if err != nil {
			t.Fatal(err)
		}
		// The corpus carries expected findings already; the mutation must
		// add exactly one more.
		base := 4 // leakedFlight, leakedGrant, leakedTryAcquire, discardedFlight
		active := 0
		for _, d := range diags {
			if !d.Suppressed {
				active++
			}
		}
		if active != base+1 {
			t.Errorf("after dropping %s, leasepair reported %d active findings, want %d", mut.drop, active, base+1)
		}
	}
}
