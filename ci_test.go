package darknight

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestCIRunPatternsNameTests: every alternative of every -run and -fuzz
// pattern in the CI workflow must match a test, fuzz target, benchmark or
// example in the packages its command names. go test runs a stale name as
// "no tests to run" and passes, so a renamed test would silently drop out
// of CI.
func TestCIRunPatternsNameTests(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join(".github", "workflows", "ci.yml"))
	if err != nil {
		t.Fatal(err)
	}
	text := strings.ReplaceAll(string(raw), "\\\n", " ")
	flag := regexp.MustCompile(`-(run|fuzz)[ =]'([^']*)'`)
	checked := 0
	for _, line := range strings.Split(text, "\n") {
		patterns := flag.FindAllStringSubmatch(line, -1)
		if !strings.Contains(line, "go test") || len(patterns) == 0 {
			continue
		}
		var names []string
		for _, f := range strings.Fields(line) {
			if strings.HasPrefix(f, ".") {
				names = append(names, testNames(t, f)...)
			}
		}
		for _, m := range patterns {
			if m[2] == "^$" {
				continue // runs no test on purpose
			}
			for _, alt := range strings.Split(m[2], "|") {
				re := regexp.MustCompile(alt)
				if !matchesAny(re, names) {
					t.Errorf("ci.yml: -%s alternative %q names no test in %q", m[1], alt, strings.TrimSpace(line))
				}
				checked++
			}
		}
	}
	if checked == 0 {
		t.Fatal("found no -run or -fuzz pattern in ci.yml")
	}
}

func matchesAny(re *regexp.Regexp, names []string) bool {
	for _, n := range names {
		if re.MatchString(n) {
			return true
		}
	}
	return false
}

// testNames returns the top-level test, fuzz, benchmark and example
// functions of the _test.go files in the package directory pkg (a
// go test argument such as "." or "./internal/serve/"), whatever their
// build tags.
func testNames(t *testing.T, pkg string) []string {
	t.Helper()
	if _, err := os.Stat(pkg); err != nil {
		t.Fatalf("ci.yml: package %q: %v", pkg, err)
	}
	files, err := filepath.Glob(filepath.Join(pkg, "*_test.go"))
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	fset := token.NewFileSet()
	for _, path := range files {
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range f.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if !ok || fn.Recv != nil {
				continue
			}
			for _, prefix := range []string{"Test", "Fuzz", "Benchmark", "Example"} {
				if strings.HasPrefix(fn.Name.Name, prefix) {
					names = append(names, fn.Name.Name)
				}
			}
		}
	}
	return names
}
