// Package hotpathalloc keeps annotated steady-state kernels
// allocation-free.
//
// Functions marked with a //darknight:hotpath doc-comment line are the
// per-request / per-tile kernels — Combine reductions, the device GEMM,
// decode paths — where a single heap allocation per call turns into GC
// pressure that shows up directly as p99 latency. Those functions are
// written against the field scratch pools (GetScratchVec / Arena) and
// must stay that way.
//
// Inside an annotated function (nested closures included) the analyzer
// reports the allocation constructs that routinely sneak back in during
// refactors:
//
//   - map and slice composite literals, and &T{...} pointer literals
//   - make and new
//   - append (growth reallocates; pre-size through the pools instead)
//   - any call into package fmt (formatting allocates, even on the
//     non-error path)
//   - interface boxing: a concrete value passed where an interface is
//     expected, or explicitly converted to an interface type
//
// Deliberate exceptions — a cold error path, a once-per-call result
// vector that must escape to the caller — carry a //lint:ignore
// hotpathalloc comment stating why the allocation is acceptable.
package hotpathalloc

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"darknight/internal/analysis"
)

// Analyzer is the hotpathalloc checker.
var Analyzer = &analysis.Analyzer{
	Name: "hotpathalloc",
	Doc:  "flag allocating constructs (composite literals, make/new, append, fmt, interface boxing) in //darknight:hotpath functions",
	Run:  run,
}

// Annotation is the doc-comment marker that opts a function in.
const Annotation = "//darknight:hotpath"

func run(pass *analysis.Pass) (any, error) {
	for _, file := range pass.Files {
		for _, fb := range analysis.FuncBodies(file) {
			if fb.Doc == nil || !annotated(fb.Doc) {
				continue
			}
			// Walk the whole body including closures: a closure spawned by
			// a hot function runs on the same hot path.
			checkHot(pass, fb.Body)
		}
	}
	return nil, nil
}

func annotated(doc *ast.CommentGroup) bool {
	for _, c := range doc.List {
		if strings.HasPrefix(strings.TrimSpace(c.Text), Annotation) {
			return true
		}
	}
	return false
}

func checkHot(pass *analysis.Pass, body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CompositeLit:
			checkCompositeLit(pass, n)
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				if _, isLit := ast.Unparen(n.X).(*ast.CompositeLit); isLit {
					pass.Reportf(n.Pos(), "hot path allocates: &composite literal escapes to the heap")
				}
			}
		case *ast.CallExpr:
			checkCall(pass, n)
		}
		return true
	})
}

// checkCompositeLit flags map and slice literals (backed by the heap when
// they escape, and a resize hazard even when they do not). Plain struct
// and array literals are value construction and stay.
func checkCompositeLit(pass *analysis.Pass, lit *ast.CompositeLit) {
	tv, ok := pass.TypesInfo.Types[lit]
	if !ok {
		return
	}
	switch tv.Type.Underlying().(type) {
	case *types.Map:
		pass.Reportf(lit.Pos(), "hot path allocates: map literal")
	case *types.Slice:
		pass.Reportf(lit.Pos(), "hot path allocates: slice literal; take a pooled scratch vector instead")
	}
}

func checkCall(pass *analysis.Pass, call *ast.CallExpr) {
	info := pass.TypesInfo
	// Builtins: make / new / append.
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if b, isB := info.Uses[id].(*types.Builtin); isB {
			switch b.Name() {
			case "make":
				pass.Reportf(call.Pos(), "hot path allocates: make; use the field scratch pools or a pre-sized buffer")
			case "new":
				pass.Reportf(call.Pos(), "hot path allocates: new")
			case "append":
				pass.Reportf(call.Pos(), "hot path allocates: append may grow; pre-size the destination")
			}
			return
		}
	}
	f := analysis.FuncObj(info, call)
	if f != nil && f.Pkg() != nil && f.Pkg().Path() == "fmt" {
		pass.Reportf(call.Pos(), "hot path allocates: fmt.%s formats through reflection and always allocates", f.Name())
		return
	}
	// Interface boxing at the call boundary: concrete argument, interface
	// parameter.
	sig, ok := info.Types[call.Fun].Type.(*types.Signature)
	if !ok {
		// Conversion T(x): boxing when T is an interface and x is not.
		if tv, isConv := info.Types[call.Fun]; isConv && tv.IsType() && len(call.Args) == 1 {
			if boxes(info, tv.Type, call.Args[0]) {
				pass.Reportf(call.Pos(), "hot path allocates: conversion boxes a concrete value into an interface")
			}
		}
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			// f(a, b...) with the slice spread keeps the slice; only the
			// non-spread variadic form boxes element-wise.
			if call.Ellipsis.IsValid() {
				continue
			}
			pt = params.At(params.Len() - 1).Type().(*types.Slice).Elem()
		case i < params.Len():
			pt = params.At(i).Type()
		default:
			continue
		}
		if boxes(info, pt, arg) {
			pass.Reportf(arg.Pos(), "hot path allocates: argument boxed into interface parameter %s", pt)
		}
	}
}

// boxes reports whether passing arg into a parameter of type pt converts
// a concrete value to an interface (heap-boxing it unless tiny).
func boxes(info *types.Info, pt types.Type, arg ast.Expr) bool {
	if pt == nil {
		return false
	}
	if _, isIface := pt.Underlying().(*types.Interface); !isIface {
		return false
	}
	at, ok := info.Types[arg]
	if !ok || at.Type == nil {
		return false
	}
	if at.IsNil() {
		return false
	}
	if _, already := at.Type.Underlying().(*types.Interface); already {
		return false
	}
	return true
}
