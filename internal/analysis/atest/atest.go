// Package atest is a miniature analysistest: it runs one analyzer over a
// corpus package under internal/analysis/testdata/src and checks the
// findings against `// want "regex"` expectations written next to the
// offending lines.
//
// Corpus conventions:
//
//   - each analyzer owns a directory testdata/src/<name>/ holding one
//     compilable package (analysis is type-driven, so even the flagged
//     cases must typecheck);
//   - a line expected to produce a finding carries a trailing
//     `// want "regex"` comment (several per line allowed, matched
//     one-to-one in order against the line's findings);
//   - blessed cases are just clean lines — or deliberately flagged lines
//     carrying a //lint:ignore suppression, which the harness checks
//     produce a suppressed (not active) finding.
//
// The corpus imports real module packages (darknight/internal/field,
// gpu, fleet) so identity checks run against the true types, not stand-ins.
package atest

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"

	"darknight/internal/analysis"
	"darknight/internal/analysis/load"
)

var (
	envOnce sync.Once
	env     *load.Env
	envErr  error
)

// Env returns the shared loading environment rooted at the module
// directory (one `go list -export` for the whole test binary).
func Env(t *testing.T) *load.Env {
	t.Helper()
	envOnce.Do(func() {
		root, err := moduleRoot()
		if err != nil {
			envErr = err
			return
		}
		env, envErr = load.NewEnv(root)
	})
	if envErr != nil {
		t.Fatalf("atest: building load env: %v", envErr)
	}
	return env
}

// moduleRoot walks up from the working directory to the enclosing go.mod.
func moduleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod above %s", dir)
		}
		dir = parent
	}
}

// CorpusDir returns the absolute path of a corpus package directory.
func CorpusDir(t *testing.T, name string) string {
	t.Helper()
	root, err := moduleRoot()
	if err != nil {
		t.Fatal(err)
	}
	return filepath.Join(root, "internal", "analysis", "testdata", "src", name)
}

// Run loads testdata/src/<subdir> under the given import path, runs the
// analyzer, and diffs findings against the corpus's want expectations.
// The import path matters: analyzers that gate on package path (ctxflow)
// get exercised through it.
func Run(t *testing.T, a *analysis.Analyzer, subdir, importPath string) {
	t.Helper()
	pkg, err := Env(t).LoadDir(CorpusDir(t, subdir), importPath)
	if err != nil {
		t.Fatalf("atest: loading corpus %s: %v", subdir, err)
	}
	diags, err := analysis.RunFiles(pkg, []*analysis.Analyzer{a})
	if err != nil {
		t.Fatalf("atest: running %s: %v", a.Name, err)
	}
	check(t, []*load.Package{pkg}, diags)
}

// RunTree loads the named subdirectories of testdata/src/<subdir> as the
// packages <prefix>/<rel>, in order (each may import the ones before it),
// runs the analyzer over all of them, adds the findings join reports from
// the whole-tree results, and diffs every active finding against the want
// expectations of all the loaded files — the harness for analyzers that
// judge the module as a whole. It returns every finding, suppressed ones
// included.
func RunTree(t *testing.T, a *analysis.Analyzer, join func([]analysis.PackageResult) []analysis.Diagnostic, subdir, prefix string, rels ...string) []analysis.Diagnostic {
	t.Helper()
	pkgs, err := Env(t).LoadTree(CorpusDir(t, subdir), prefix, rels...)
	if err != nil {
		t.Fatalf("atest: loading corpus %s: %v", subdir, err)
	}
	results, err := analysis.Run(pkgs, []*analysis.Analyzer{a})
	if err != nil {
		t.Fatalf("atest: running %s: %v", a.Name, err)
	}
	diags := join(results)
	for _, pr := range results {
		diags = append(diags, pr.Diagnostics...)
	}
	check(t, pkgs, diags)
	return diags
}

// wantRe extracts the quoted regexes of a want comment.
var wantRe = regexp.MustCompile(`//\s*want\s+((?:"(?:[^"\\]|\\.)*"\s*)+)`)

var wantArgRe = regexp.MustCompile(`"((?:[^"\\]|\\.)*)"`)

type lineKey struct {
	file string
	line int
}

// check diffs diagnostics against the expectations of the packages' files.
func check(t *testing.T, pkgs []*load.Package, diags []analysis.Diagnostic) {
	t.Helper()
	// Gather expectations from the raw sources (comment maps would work
	// too, but the files are small and line-oriented reads are simpler to
	// reason about for trailing comments).
	wants := make(map[lineKey][]*regexp.Regexp)
	seen := make(map[string]bool)
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			fname := pkg.Fset.Position(f.Pos()).Filename
			if seen[fname] {
				continue
			}
			seen[fname] = true
			data, err := os.ReadFile(fname)
			if err != nil {
				t.Fatal(err)
			}
			for i, lineText := range strings.Split(string(data), "\n") {
				m := wantRe.FindStringSubmatch(lineText)
				if m == nil {
					continue
				}
				for _, am := range wantArgRe.FindAllStringSubmatch(m[1], -1) {
					re, err := regexp.Compile(am[1])
					if err != nil {
						t.Fatalf("%s:%d: bad want regexp %q: %v", fname, i+1, am[1], err)
					}
					wants[lineKey{fname, i + 1}] = append(wants[lineKey{fname, i + 1}], re)
				}
			}
		}
	}
	// Active findings must match a want on their line; wants must all be
	// consumed; suppressed findings need no want (that is the point of
	// blessing) but may not co-exist with one.
	for _, d := range diags {
		if d.Suppressed {
			continue
		}
		key := lineKey{d.Pos.Filename, d.Pos.Line}
		ws := wants[key]
		matched := false
		for i, re := range ws {
			if re.MatchString(d.Message) {
				wants[key] = append(ws[:i], ws[i+1:]...)
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("unexpected finding at %s:%d: %s: %s", d.Pos.Filename, d.Pos.Line, d.Analyzer, d.Message)
		}
	}
	for key, ws := range wants {
		for _, re := range ws {
			t.Errorf("%s:%d: expected finding matching %q, got none", key.file, key.line, re)
		}
	}
}

// RunExpectNone loads the corpus under importPath and asserts the
// analyzer reports nothing at all, want comments notwithstanding — used
// to prove path-gated analyzers (ctxflow) stay silent outside their
// packages.
func RunExpectNone(t *testing.T, a *analysis.Analyzer, subdir, importPath string) {
	t.Helper()
	pkg, err := Env(t).LoadDir(CorpusDir(t, subdir), importPath)
	if err != nil {
		t.Fatalf("atest: loading corpus %s: %v", subdir, err)
	}
	diags, err := analysis.RunFiles(pkg, []*analysis.Analyzer{a})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		if d.Analyzer == a.Name {
			t.Errorf("unexpected %s finding under import path %s: %s", a.Name, importPath, d)
		}
	}
}

// MustSuppress asserts that at least one SUPPRESSED finding for the
// analyzer exists in the corpus run — proving a blessed case actually
// trips the check and is silenced by its //lint:ignore, rather than
// never firing at all.
func MustSuppress(t *testing.T, a *analysis.Analyzer, subdir, importPath string) {
	t.Helper()
	pkg, err := Env(t).LoadDir(CorpusDir(t, subdir), importPath)
	if err != nil {
		t.Fatalf("atest: loading corpus %s: %v", subdir, err)
	}
	diags, err := analysis.RunFiles(pkg, []*analysis.Analyzer{a})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		if d.Suppressed && d.Analyzer == a.Name {
			return
		}
	}
	t.Errorf("corpus %s: expected at least one suppressed %s finding (a blessed case), found none", subdir, a.Name)
}
