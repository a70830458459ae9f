// Package load typechecks Go packages for darknightlint without
// golang.org/x/tools: package metadata and compiled export data come from
// `go list -export -json`, target packages are parsed and typechecked
// from source with go/types, and every import (stdlib or intra-module)
// resolves through the build cache's export files via go/importer's gc
// lookup hook. The result is a go/packages-shaped view — Fset, syntax
// trees with comments, *types.Package, *types.Info — built entirely from
// the standard library, which is what lets the lint suite run in a
// hermetic build environment.
package load

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one typechecked package ready for analysis.
type Package struct {
	ImportPath string
	Dir        string
	Fset       *token.FileSet
	Files      []*ast.File
	Types      *types.Package
	Info       *types.Info
}

// listPkg mirrors the `go list -json` fields the loader consumes.
type listPkg struct {
	Dir        string
	ImportPath string
	Export     string
	GoFiles    []string
	Standard   bool
	Incomplete bool
}

// Env is a reusable loading environment for one module tree: the export
// index built by a single `go list -export -deps` invocation, shared by
// every package and corpus typecheck that follows.
type Env struct {
	ModuleDir string
	exports   map[string]string // import path -> export data file
	pkgs      []listPkg         // module (non-std) packages, dependency order
	imp       types.Importer    // shared, so an imported object is one object tree-wide
}

// NewEnv lists the module's packages under dir matching patterns
// (defaults to ./...), compiling export data for them and every
// dependency. Packages that fail to compile surface as errors here —
// analysis needs a type-correct tree.
func NewEnv(dir string, patterns ...string) (*Env, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	args := append([]string{
		"list", "-e", "-export", "-deps",
		"-json=Dir,ImportPath,Export,GoFiles,Standard,Incomplete",
	}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list: %v\n%s", err, stderr.String())
	}
	env := &Env{ModuleDir: dir, exports: make(map[string]string)}
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listPkg
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("go list decode: %v", err)
		}
		if p.Incomplete {
			return nil, fmt.Errorf("package %s does not compile; fix the build before linting", p.ImportPath)
		}
		if p.Export != "" {
			env.exports[p.ImportPath] = p.Export
		}
		if !p.Standard {
			env.pkgs = append(env.pkgs, p)
		}
	}
	if len(env.pkgs) == 0 {
		return nil, fmt.Errorf("go list %s: no packages", strings.Join(patterns, " "))
	}
	return env, nil
}

// importer returns the environment's import resolver over the export
// index. It is shared by every typecheck, so a package imported by two
// packages yields the same types.Objects in both (types.Implements and
// types.Identical can then compare across packages).
func (e *Env) importer() types.Importer {
	if e.imp == nil {
		lookup := func(path string) (io.ReadCloser, error) {
			f, ok := e.exports[path]
			if !ok {
				return nil, fmt.Errorf("no export data for %q", path)
			}
			return os.Open(f)
		}
		e.imp = importer.ForCompiler(token.NewFileSet(), "gc", lookup)
	}
	return e.imp
}

// overlay resolves the given source-checked packages first and falls
// back to the export index.
type overlay struct {
	pkgs map[string]*types.Package
	next types.Importer
}

func (o overlay) Import(path string) (*types.Package, error) {
	if p, ok := o.pkgs[path]; ok {
		return p, nil
	}
	return o.next.Import(path)
}

// newInfo allocates the full types.Info map set analyzers rely on.
func newInfo() *types.Info {
	return &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Implicits:  make(map[ast.Node]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
}

// CheckFiles typechecks the given parsed files as one package with the
// environment's import resolution. Used by both the package loader and
// the analysistest/seeded-mutation harnesses (which synthesize sources).
func (e *Env) CheckFiles(importPath string, fset *token.FileSet, files []*ast.File) (*types.Package, *types.Info, error) {
	return e.check(e.importer(), importPath, fset, files)
}

func (e *Env) check(imp types.Importer, importPath string, fset *token.FileSet, files []*ast.File) (*types.Package, *types.Info, error) {
	info := newInfo()
	conf := types.Config{Importer: imp}
	pkg, err := conf.Check(importPath, fset, files, info)
	if err != nil {
		return nil, nil, err
	}
	return pkg, info, nil
}

// ParseDir parses every non-test .go file in dir (with comments) into
// fset. Files are parsed in sorted order for deterministic positions.
func ParseDir(fset *token.FileSet, dir string) ([]*ast.File, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, ent := range ents {
		n := ent.Name()
		if strings.HasSuffix(n, ".go") && !strings.HasSuffix(n, "_test.go") && !ent.IsDir() {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	if len(names) == 0 {
		return nil, fmt.Errorf("no .go files in %s", dir)
	}
	var files []*ast.File
	for _, n := range names {
		f, err := parser.ParseFile(fset, filepath.Join(dir, n), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return files, nil
}

// LoadDir parses and typechecks one directory of sources as a package
// with the given import path — the corpus/mutation entry point; the
// directory does not need to be part of the module build graph, but its
// imports must resolve through the environment's export index.
func (e *Env) LoadDir(dir, importPath string) (*Package, error) {
	return e.loadDir(e.importer(), dir, importPath)
}

// LoadTree typechecks the named subdirectories of root as packages
// importable as prefix/<rel>, in the given order; each may import the
// ones before it. It is the multi-package corpus entry point.
func (e *Env) LoadTree(root, prefix string, rels ...string) ([]*Package, error) {
	imp := overlay{pkgs: make(map[string]*types.Package), next: e.importer()}
	var out []*Package
	for _, rel := range rels {
		pkg, err := e.loadDir(imp, filepath.Join(root, filepath.FromSlash(rel)), prefix+"/"+rel)
		if err != nil {
			return nil, err
		}
		imp.pkgs[pkg.ImportPath] = pkg.Types
		out = append(out, pkg)
	}
	return out, nil
}

func (e *Env) loadDir(imp types.Importer, dir, importPath string) (*Package, error) {
	fset := token.NewFileSet()
	files, err := ParseDir(fset, dir)
	if err != nil {
		return nil, err
	}
	pkg, info, err := e.check(imp, importPath, fset, files)
	if err != nil {
		return nil, fmt.Errorf("typecheck %s: %v", dir, err)
	}
	return &Package{ImportPath: importPath, Dir: dir, Fset: fset, Files: files, Types: pkg, Info: info}, nil
}

// Packages typechecks every module package in the environment from
// source, in dependency order. Each package gets its own FileSet (the
// packages are independently analyzable).
func (e *Env) Packages() ([]*Package, error) {
	out := make([]*Package, 0, len(e.pkgs))
	for _, lp := range e.pkgs {
		if len(lp.GoFiles) == 0 {
			continue
		}
		fset := token.NewFileSet()
		var files []*ast.File
		for _, gf := range lp.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(lp.Dir, gf), nil, parser.ParseComments)
			if err != nil {
				return nil, err
			}
			files = append(files, f)
		}
		pkg, info, err := e.CheckFiles(lp.ImportPath, fset, files)
		if err != nil {
			return nil, fmt.Errorf("typecheck %s: %v", lp.ImportPath, err)
		}
		out = append(out, &Package{
			ImportPath: lp.ImportPath, Dir: lp.Dir,
			Fset: fset, Files: files, Types: pkg, Info: info,
		})
	}
	return out, nil
}
