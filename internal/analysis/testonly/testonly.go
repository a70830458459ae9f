// Package testonly keeps test-only code out of the binaries.
//
// DarKnight's guarantees hold only for the code the TEE runs: one encode,
// one verified decode, one kernel per layer. An exported name under
// internal/ that only tests call is code the binaries carry but never
// run — a seed kernel, an unverified decode wrapper, a fixture — and a
// second implementation to keep in step with the first. The analyzer
// flags every exported func, method, type, var and const declared in
// non-test source under internal/ that no non-test file outside the
// module's bench/ tree references. Its own package counts as a user; its
// declaration does not. A method also counts as used when it implements
// a method of an interface type that non-test code references (nn.Layer,
// gpu.Device, error), checked with types.Implements. Struct fields are
// out of scope. Test-support packages are exempt: those under internal/
// that no non-test file imports (atest, spec/stack), or that only other
// test support imports (spec, imported by spec/stack).
//
// The check needs the whole module at once: each package's Run returns
// its declarations and uses and reports nothing, and Unused joins them after a
// whole-tree run. In vet-tool mode, which sees one unit at a time, the
// analyzer therefore reports nothing.
package testonly

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"darknight/internal/analysis"
)

// Analyzer is the testonly checker.
var Analyzer = &analysis.Analyzer{
	Name: "testonly",
	Doc:  "flag exported names under internal/ that no non-test code outside bench/ references (whole-tree runs; see Unused)",
	Run:  run,
}

// key names a package-level object or a method independently of the
// types.Object that denotes it: a package typechecked from source and
// the same package seen through export data share keys, not objects.
type key struct{ pkg, recv, name string }

// facts is one package's contribution to the whole-module join.
type facts struct {
	decls   []decl
	uses    map[key]bool
	ifaces  map[*types.Interface]bool // interface types non-test code references
	named   []*types.Named            // package-level named types, source view
	imports []*types.Package          // imported packages, export view
}

type decl struct {
	key  key
	kind string
	pos  token.Pos
}

func run(pass *analysis.Pass) (any, error) {
	f := &facts{
		uses:    make(map[key]bool),
		ifaces:  make(map[*types.Interface]bool),
		named:   namedTypes(pass.Pkg),
		imports: pass.Pkg.Imports(),
	}
	if underInternal(pass.Pkg.Path()) {
		for _, file := range pass.Files {
			f.decls = append(f.decls, exportedDecls(pass.Pkg.Path(), file)...)
		}
	}
	if underBench(pass.Pkg.Path()) {
		return f, nil
	}
	for _, obj := range pass.TypesInfo.Uses {
		if k, ok := keyOf(obj); ok {
			f.uses[k] = true
		}
		if tn, ok := obj.(*types.TypeName); ok {
			if it, ok := tn.Type().Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
				f.ifaces[it] = true
			}
		}
	}
	return f, nil
}

// exportedDecls lists the file's exported top-level declarations.
func exportedDecls(pkg string, file *ast.File) []decl {
	var out []decl
	for _, d := range file.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			if !d.Name.IsExported() {
				continue
			}
			k, kind := key{pkg: pkg, name: d.Name.Name}, "func"
			if d.Recv != nil {
				k.recv, kind = recvName(d.Recv.List[0].Type), "method"
			}
			out = append(out, decl{k, kind, d.Name.Pos()})
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					if s.Name.IsExported() {
						out = append(out, decl{key{pkg: pkg, name: s.Name.Name}, "type", s.Name.Pos()})
					}
				case *ast.ValueSpec:
					for _, id := range s.Names {
						if id.IsExported() {
							out = append(out, decl{key{pkg: pkg, name: id.Name}, d.Tok.String(), id.Pos()})
						}
					}
				}
			}
		}
	}
	return out
}

// recvName is a receiver expression's base type name (T for T, *T, T[P]).
func recvName(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return ""
		}
	}
}

// keyOf keys a package-level object or a method; other objects (locals,
// fields, builtins) have no key.
func keyOf(obj types.Object) (key, bool) {
	if obj == nil || obj.Pkg() == nil {
		return key{}, false
	}
	if fn, ok := obj.(*types.Func); ok {
		if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
			t := recv.Type()
			if p, ok := t.(*types.Pointer); ok {
				t = p.Elem()
			}
			named, ok := t.(*types.Named)
			if !ok {
				return key{}, false // an interface method
			}
			return key{obj.Pkg().Path(), named.Origin().Obj().Name(), obj.Name()}, true
		}
	}
	if obj.Parent() != obj.Pkg().Scope() {
		return key{}, false
	}
	return key{pkg: obj.Pkg().Path(), name: obj.Name()}, true
}

// namedTypes lists the package's non-generic package-level named types.
func namedTypes(pkg *types.Package) []*types.Named {
	var out []*types.Named
	for _, name := range pkg.Scope().Names() {
		tn, ok := pkg.Scope().Lookup(name).(*types.TypeName)
		if !ok || tn.IsAlias() {
			continue
		}
		if n, ok := tn.Type().(*types.Named); ok && n.TypeParams().Len() == 0 {
			out = append(out, n)
		}
	}
	return out
}

// underInternal reports whether the import path has an internal element.
func underInternal(path string) bool {
	return strings.HasPrefix(path, "internal/") || strings.Contains(path, "/internal/")
}

// underBench reports whether the import path lies in a bench/ tree
// outside internal/: the module's benchmark, whose uses do not count.
func underBench(path string) bool {
	for _, elem := range strings.Split(path, "/") {
		switch elem {
		case "internal":
			return false
		case "bench":
			return true
		}
	}
	return false
}

// isSupport reports whether path is a test-support package of the import
// graph given as each package's non-test importers: under internal/, with
// importers, if any, that are all test support themselves. Go imports are
// acyclic, so the walk ends; memo keeps it linear.
func isSupport(path string, importers map[string][]string, memo map[string]bool) bool {
	if v, ok := memo[path]; ok {
		return v
	}
	v := underInternal(path)
	for _, imp := range importers[path] {
		v = v && isSupport(imp, importers, memo)
	}
	memo[path] = v
	return v
}

// Unused joins the per-package facts of a whole-tree run and returns one
// finding per unused exported name, at its declaration, with the
// declaring package's //lint:ignore directives applied.
func Unused(results []analysis.PackageResult) []analysis.Diagnostic {
	used := make(map[key]bool)
	importers := make(map[string][]string)
	ifaces := make(map[*types.Interface]bool)
	for _, it := range dynamic {
		ifaces[it] = true
	}
	var named []*types.Named
	views := make(map[*types.Package]bool) // export views, one per path
	for _, pr := range results {
		f, ok := pr.Results[Analyzer.Name].(*facts)
		if !ok {
			continue
		}
		for k := range f.uses {
			used[k] = true
		}
		for _, imp := range f.imports {
			importers[imp.Path()] = append(importers[imp.Path()], pr.Pkg.ImportPath)
			if underInternal(imp.Path()) && !views[imp] {
				views[imp] = true
				named = append(named, namedTypes(imp)...)
			}
		}
		for it := range f.ifaces {
			ifaces[it] = true
		}
		named = append(named, f.named...)
	}
	markImplementations(used, named, ifaces)
	support := make(map[string]bool)

	var out []analysis.Diagnostic
	for _, pr := range results {
		f, ok := pr.Results[Analyzer.Name].(*facts)
		if !ok || isSupport(pr.Pkg.ImportPath, importers, support) {
			continue
		}
		var diags []analysis.Diagnostic
		for _, d := range f.decls {
			if used[d.key] {
				continue
			}
			name := d.key.name
			if d.key.recv != "" {
				name = d.key.recv + "." + name
			}
			diags = append(diags, analysis.Diagnostic{
				Pos:      pr.Pkg.Fset.Position(d.pos),
				Analyzer: Analyzer.Name,
				Message: "exported " + d.kind + " " + name +
					" is referenced by no non-test code outside bench/: delete it, move it into a _test.go file or a test-only package, or suppress it with a reason",
			})
		}
		out = append(out, analysis.Suppress(pr.Pkg, diags)...)
	}
	return out
}

// dynamic lists the interfaces the standard library asserts at run time —
// fmt's Stringer, and the Unwrap and Is methods errors looks for — whose
// methods run without non-test code naming the interface.
var dynamic = []*types.Interface{
	method("String", nil, types.Typ[types.String]),
	method("Unwrap", nil, types.Universe.Lookup("error").Type()),
	method("Is", types.Universe.Lookup("error").Type(), types.Typ[types.Bool]),
}

// method returns the one-method interface { name(param) result }; a nil
// param means no parameter.
func method(name string, param, result types.Type) *types.Interface {
	var params *types.Tuple
	if param != nil {
		params = types.NewTuple(types.NewVar(token.NoPos, nil, "", param))
	}
	results := types.NewTuple(types.NewVar(token.NoPos, nil, "", result))
	sig := types.NewSignatureType(nil, nil, nil, params, results, false)
	return types.NewInterfaceType([]*types.Func{types.NewFunc(token.NoPos, nil, name, sig)}, nil).Complete()
}

// markImplementations marks, for every named type (or its pointer) that
// implements a referenced interface, the methods that implement it —
// promoted ones resolve to their declaring type.
func markImplementations(used map[key]bool, named []*types.Named, ifaces map[*types.Interface]bool) {
	for _, n := range named {
		if _, isIface := n.Underlying().(*types.Interface); isIface {
			continue
		}
		ptr := types.NewPointer(n)
		for it := range ifaces {
			if !types.Implements(n, it) && !types.Implements(ptr, it) {
				continue
			}
			for i := 0; i < it.NumMethods(); i++ {
				m := it.Method(i)
				obj, _, _ := types.LookupFieldOrMethod(ptr, false, m.Pkg(), m.Name())
				if k, ok := keyOf(obj); ok {
					used[k] = true
				}
			}
		}
	}
}
