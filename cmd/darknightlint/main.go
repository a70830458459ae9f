// Command darknightlint runs the repository's invariant analyzers.
//
// Standalone (the everyday form):
//
//	go run ./cmd/darknightlint ./...
//	go run ./cmd/darknightlint -checks lazyterms,leasepair ./internal/field
//
// It loads, typechecks and analyzes the named packages (default ./...),
// prints findings as file:line:col: analyzer: message, and exits 1 when
// any unsuppressed finding remains. The whole-module checks run in this
// mode only, on whole-tree runs: metric coverage (canonical families
// nobody registers) and testonly (exported names under internal/ that no
// non-test code outside bench/ references).
//
// Vet tool (drop-in for CI pipelines that already run go vet):
//
//	go vet -vettool=$(go env GOPATH)/bin/darknightlint ./...
//
// When invoked by cmd/go the tool receives a single *.cfg argument and
// speaks the vet unit-checker protocol: it answers -V=full for the build
// cache, typechecks the unit from the config's file lists, writes the
// (empty — the suite is fact-free) .vetx output, reports findings to
// stderr and exits 2 when there are any. A unit is one package, so
// testonly, which needs every package's uses at once, reports nothing in
// this mode.
package main

import (
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"path/filepath"
	"strings"

	"darknight/internal/analysis"
	"darknight/internal/analysis/load"
	"darknight/internal/analysis/metricname"
	"darknight/internal/analysis/suite"
	"darknight/internal/analysis/testonly"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("darknightlint", flag.ExitOnError)
	var (
		vFlag       = fs.String("V", "", "print version and exit (vet tool protocol)")
		checks      = fs.String("checks", "", "comma-separated analyzer names to run (default: all)")
		list        = fs.Bool("list", false, "list analyzers and exit")
		showSup     = fs.Bool("show-suppressed", false, "also print suppressed findings with their reasons")
		jsonOut     = fs.Bool("json", false, "emit findings as JSON")
		flagsOnly   = fs.Bool("flags", false, "print registered flags (vet tool protocol) and exit")
		fixNothing  = fs.Bool("fix", false, "accepted for vet compatibility; the suite has no fixers")
		vetxOnlyCLI = fs.Bool("vetx-only", false, "accepted for vet compatibility")
	)
	_ = fixNothing
	_ = vetxOnlyCLI
	if err := fs.Parse(args); err != nil {
		return 1
	}
	if *vFlag != "" {
		// cmd/go hashes this line into its build cache key; it must be
		// "name version ..." and change when the tool changes.
		fmt.Printf("darknightlint version devel buildID=%s\n", selfID())
		return 0
	}
	if *flagsOnly {
		// vet asks which flags the tool supports (a JSON array of
		// {Name,Bool,Usage}); none beyond the protocol.
		fmt.Println("[]")
		return 0
	}
	analyzers := suite.All()
	if *checks != "" {
		analyzers = suite.ByName(strings.Split(*checks, ","))
		if analyzers == nil {
			fmt.Fprintf(os.Stderr, "darknightlint: unknown analyzer in -checks=%s\n", *checks)
			return 1
		}
	}
	if *list {
		for _, a := range analyzers {
			fmt.Printf("%-14s %s\n", a.Name, a.Doc)
		}
		return 0
	}
	rest := fs.Args()
	if len(rest) == 1 && strings.HasSuffix(rest[0], ".cfg") {
		return runVetUnit(rest[0], analyzers)
	}
	return runStandalone(rest, analyzers, *showSup, *jsonOut)
}

// selfID fingerprints the executable so the go build cache invalidates
// vet results when the tool is rebuilt.
func selfID() string {
	exe, err := os.Executable()
	if err != nil {
		return "unknown"
	}
	f, err := os.Open(exe)
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "unknown"
	}
	return fmt.Sprintf("%x", h.Sum(nil)[:16])
}

// --- standalone mode ---

func runStandalone(patterns []string, analyzers []*analysis.Analyzer, showSup, jsonOut bool) int {
	cwd, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, "darknightlint:", err)
		return 1
	}
	env, err := load.NewEnv(cwd, patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "darknightlint:", err)
		return 1
	}
	pkgs, err := env.Packages()
	if err != nil {
		fmt.Fprintln(os.Stderr, "darknightlint:", err)
		return 1
	}
	results, err := analysis.Run(pkgs, analyzers)
	if err != nil {
		fmt.Fprintln(os.Stderr, "darknightlint:", err)
		return 1
	}
	// The whole-module checks are only meaningful on whole-tree runs:
	// canonical metric families no analyzed package registers, and
	// exported names no non-test code references.
	var missing []string
	if wholeTree(patterns) && hasAnalyzer(analyzers, metricname.Analyzer.Name) {
		missing = metricname.Unregistered(suite.MetricSets(results))
	}
	if wholeTree(patterns) && hasAnalyzer(analyzers, testonly.Analyzer.Name) {
		results = append(results, analysis.PackageResult{Diagnostics: testonly.Unused(results)})
	}
	active := analysis.Active(results)
	if jsonOut {
		out := struct {
			Findings            []analysis.Diagnostic `json:"findings"`
			UnregisteredMetrics []string              `json:"unregistered_metrics,omitempty"`
		}{active, missing}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		_ = enc.Encode(out)
	} else {
		for _, d := range active {
			fmt.Println(rel(cwd, d))
		}
		if showSup {
			for _, pr := range results {
				for _, d := range pr.Diagnostics {
					if d.Suppressed {
						fmt.Printf("%s [suppressed: %s]\n", rel(cwd, d), d.Reason)
					}
				}
			}
		}
		for _, name := range missing {
			fmt.Printf("metricname: canonical family %s is never registered by any package; remove it from canonical.go or restore the registration\n", name)
		}
	}
	if len(active) > 0 || len(missing) > 0 {
		return 1
	}
	return 0
}

func wholeTree(patterns []string) bool {
	if len(patterns) == 0 {
		return true
	}
	for _, p := range patterns {
		if p == "./..." || p == "all" {
			return true
		}
	}
	return false
}

func hasAnalyzer(as []*analysis.Analyzer, name string) bool {
	for _, a := range as {
		if a.Name == name {
			return true
		}
	}
	return false
}

// rel prints a finding with the file path relativized to dir.
func rel(dir string, d analysis.Diagnostic) string {
	p := d.Pos
	if r, err := filepath.Rel(dir, p.Filename); err == nil && !strings.HasPrefix(r, "..") {
		p.Filename = r
	}
	d.Pos = p
	return d.String()
}

// --- vet unit-checker mode ---

// vetConfig mirrors the JSON cmd/go hands a -vettool (one compilation
// unit per invocation).
type vetConfig struct {
	ID                        string
	Compiler                  string
	Dir                       string
	ImportPath                string
	GoFiles                   []string
	NonGoFiles                []string
	ImportMap                 map[string]string
	PackageFile               map[string]string
	Standard                  map[string]bool
	PackageVetx               map[string]string
	VetxOnly                  bool
	VetxOutput                string
	SucceedOnTypecheckFailure bool
}

func runVetUnit(cfgPath string, analyzers []*analysis.Analyzer) int {
	data, err := os.ReadFile(cfgPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "darknightlint:", err)
		return 1
	}
	var cfg vetConfig
	if err := json.Unmarshal(data, &cfg); err != nil {
		fmt.Fprintf(os.Stderr, "darknightlint: parsing %s: %v\n", cfgPath, err)
		return 1
	}
	// The suite exports no facts, but the protocol requires the output
	// file to exist before cmd/go will cache the action.
	if cfg.VetxOutput != "" {
		if err := os.WriteFile(cfg.VetxOutput, []byte{}, 0o666); err != nil {
			fmt.Fprintln(os.Stderr, "darknightlint:", err)
			return 1
		}
	}
	if cfg.VetxOnly {
		return 0
	}
	fset := token.NewFileSet()
	var files []*ast.File
	for _, gf := range cfg.GoFiles {
		f, err := parser.ParseFile(fset, gf, nil, parser.ParseComments)
		if err != nil {
			if cfg.SucceedOnTypecheckFailure {
				return 0
			}
			fmt.Fprintln(os.Stderr, "darknightlint:", err)
			return 1
		}
		files = append(files, f)
	}
	lookup := func(path string) (io.ReadCloser, error) {
		if canon, ok := cfg.ImportMap[path]; ok {
			path = canon
		}
		file, ok := cfg.PackageFile[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	}
	compiler := cfg.Compiler
	if compiler == "" {
		compiler = "gc"
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Implicits:  make(map[ast.Node]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	conf := types.Config{Importer: importer.ForCompiler(fset, compiler, lookup)}
	tpkg, err := conf.Check(cfg.ImportPath, fset, files, info)
	if err != nil {
		if cfg.SucceedOnTypecheckFailure {
			return 0
		}
		fmt.Fprintln(os.Stderr, "darknightlint:", err)
		return 1
	}
	pkg := &load.Package{
		ImportPath: cfg.ImportPath, Dir: cfg.Dir,
		Fset: fset, Files: files, Types: tpkg, Info: info,
	}
	diags, err := analysis.RunFiles(pkg, analyzers)
	if err != nil {
		fmt.Fprintln(os.Stderr, "darknightlint:", err)
		return 1
	}
	exit := 0
	for _, d := range diags {
		if d.Suppressed {
			continue
		}
		fmt.Fprintln(os.Stderr, d.String())
		exit = 2
	}
	return exit
}
