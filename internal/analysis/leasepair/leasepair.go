// Package leasepair flags acquire/release pairs that cannot balance.
//
// Two resource disciplines in the serving stack deadlock the fleet when
// broken:
//
// Value pairs — fleet.Manager.Acquire / TryAcquire / AcquireSlots and
// gpu.Cluster.BeginBlock / fleet.Grant.BeginBlock hand back a value
// (Grant, BlockFlight) that pins device capacity until its Release/End
// method runs (a grant's Release waits for every flight opened on it to
// End). The
// analyzer requires the acquired value to be released in the acquiring
// function (directly or via defer) or to escape it (returned, passed to
// another call, stored into a structure) so ownership demonstrably moves.
// A value that is neither released nor escapes is a capacity leak:
// admission stalls once the slot pool drains, with no error anywhere.
//
// The TEE token — scheduler offload windows run with the enclave token
// held; to overlap GPU flights they Unlock the token, wait, and
// re-acquire with lockTEE(). A function whose first token event is an
// Unlock was therefore CALLED holding the token, and every return
// between that Unlock and the matching re-lock hands a released token
// back to a caller that believes it still holds it — the next Unlock
// panics or, worse, two batches enter the enclave concurrently. The
// analyzer scans token events in source order and reports returns inside
// an open window. Functions whose first event is a Lock own their
// critical section (plain mutex usage) and are exempt.
//
// Neither rule is path-sensitive; the value rule in particular accepts a
// release on any path. It exists to catch the common regression — the
// Release call deleted or never written — not every exotic leak.
package leasepair

import (
	"go/ast"

	"darknight/internal/analysis"
)

// Analyzer is the leasepair checker.
var Analyzer = &analysis.Analyzer{
	Name: "leasepair",
	Doc:  "flag fleet grant / block flight acquisitions never released or escaped, and returns inside an open TEE-token window",
	Run:  run,
}

// acquireRule describes one acquiring method and the name of the release
// method its result must see.
type acquireRule struct {
	pkgSuffix string
	recvType  string
	methods   []string
	release   string
	what      string
}

var acquireRules = []acquireRule{
	{"internal/fleet", "Manager", []string{"Acquire", "TryAcquire", "AcquireSlots"}, "Release", "fleet grant"},
	{"internal/gpu", "Cluster", []string{"BeginBlock"}, "End", "block flight"},
	{"internal/fleet", "Grant", []string{"BeginBlock"}, "End", "block flight"},
}

func run(pass *analysis.Pass) (any, error) {
	for _, file := range pass.Files {
		for _, fb := range analysis.FuncBodies(file) {
			checkAcquires(pass, fb.Body)
			checkTEEWindow(pass, fb.Body)
		}
	}
	return nil, nil
}

// allBlank reports whether every left-hand side is the blank identifier.
func allBlank(lhs []ast.Expr) bool {
	for _, e := range lhs {
		id, ok := e.(*ast.Ident)
		if !ok || id.Name != "_" {
			return false
		}
	}
	return true
}

// matchAcquire returns the rule for the call, or nil.
func matchAcquire(pass *analysis.Pass, call *ast.CallExpr) *acquireRule {
	for i := range acquireRules {
		r := &acquireRules[i]
		if analysis.IsMethod(pass.TypesInfo, call, r.pkgSuffix, r.recvType, r.methods...) {
			return r
		}
	}
	return nil
}

// checkAcquires enforces the value-pair rule on one function body.
func checkAcquires(pass *analysis.Pass, body *ast.BlockStmt) {
	// Acquisition sites: assignments whose RHS is a matching call. The
	// acquired value must land in a plain identifier; blank or discarded
	// results are immediate findings.
	type site struct {
		rule *acquireRule
		name *ast.Ident // nil when discarded
		call *ast.CallExpr
	}
	var sites []site
	analysis.InspectOwn(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if len(n.Rhs) == 1 {
				if call, ok := n.Rhs[0].(*ast.CallExpr); ok {
					if r := matchAcquire(pass, call); r != nil {
						id, _ := n.Lhs[0].(*ast.Ident)
						if id != nil && id.Name == "_" {
							id = nil
						}
						// `_, err :=` keeps the error while discarding the
						// value: the expect-failure idiom (the value is nil
						// when err is non-nil), not a leak. Only an
						// all-blank discard throws the handle away for real.
						if id == nil && !allBlank(n.Lhs) {
							break
						}
						sites = append(sites, site{r, id, call})
					}
				}
			}
		case *ast.ExprStmt:
			if call, ok := n.X.(*ast.CallExpr); ok {
				if r := matchAcquire(pass, call); r != nil {
					sites = append(sites, site{r, nil, call})
				}
			}
		}
		return true
	})
	if len(sites) == 0 {
		return
	}
	for _, s := range sites {
		if s.name == nil {
			pass.Reportf(s.call.Pos(), "%s acquired and discarded: the result's %s method must run to return capacity",
				s.rule.what, s.rule.release)
			continue
		}
		obj := pass.TypesInfo.Defs[s.name]
		if obj == nil {
			// Plain `=` to an existing variable: resolve through Uses.
			obj = pass.TypesInfo.Uses[s.name]
		}
		if obj == nil {
			continue
		}
		if !releasedOrEscapes(pass, body, s.name, s.rule.release) {
			pass.Reportf(s.call.Pos(), "%s %q is never released: call %s.%s (or defer it) on every path, or hand the value off",
				s.rule.what, s.name.Name, s.name.Name, s.rule.release)
		}
	}
}

// releasedOrEscapes scans the whole function (nested literals included —
// deferred closures routinely do the releasing) for a use of the
// acquired variable that either invokes its release method or moves
// ownership elsewhere: appearing as a call argument, in a return
// statement, inside a composite literal, sent on a channel, or assigned
// to some other location.
func releasedOrEscapes(pass *analysis.Pass, body *ast.BlockStmt, def *ast.Ident, release string) bool {
	target := pass.TypesInfo.Defs[def]
	if target == nil {
		target = pass.TypesInfo.Uses[def]
	}
	isTarget := func(e ast.Expr) bool {
		id, ok := ast.Unparen(e).(*ast.Ident)
		if !ok {
			return false
		}
		o := pass.TypesInfo.Uses[id]
		return o != nil && o == target
	}
	ok := false
	ast.Inspect(body, func(n ast.Node) bool {
		if ok {
			return false
		}
		switch n := n.(type) {
		case *ast.CallExpr:
			// v.Release() / v.End()
			if sel, isSel := ast.Unparen(n.Fun).(*ast.SelectorExpr); isSel &&
				sel.Sel.Name == release && isTarget(sel.X) {
				ok = true
				return false
			}
			// v as an argument: ownership handed off.
			for _, arg := range n.Args {
				if isTarget(arg) {
					ok = true
					return false
				}
			}
		case *ast.ReturnStmt:
			for _, r := range n.Results {
				if isTarget(r) {
					ok = true
					return false
				}
			}
		case *ast.CompositeLit:
			for _, el := range n.Elts {
				if kv, isKV := el.(*ast.KeyValueExpr); isKV {
					el = kv.Value
				}
				if isTarget(el) {
					ok = true
					return false
				}
			}
		case *ast.SendStmt:
			if isTarget(n.Value) {
				ok = true
				return false
			}
		case *ast.AssignStmt:
			// v assigned somewhere other than its own definition: stored
			// into a field, map, or another variable that now owns it.
			for i, rhs := range n.Rhs {
				if isTarget(rhs) {
					if i < len(n.Lhs) {
						// Re-binding to itself or discarding to _ moves
						// ownership nowhere.
						if id, isID := n.Lhs[i].(*ast.Ident); isID &&
							(id.Name == "_" || pass.TypesInfo.Defs[id] == target) {
							continue
						}
					}
					ok = true
					return false
				}
			}
		}
		return true
	})
	return ok
}

// --- TEE token windows ---

// teeEvent is one token transition in source order.
type teeEvent struct {
	pos    ast.Node
	unlock bool
}

// checkTEEWindow enforces the dispatch-window discipline: in a function
// whose first token event is an Unlock, no return may sit between an
// Unlock and the next re-lock, and the function must not end released.
func checkTEEWindow(pass *analysis.Pass, body *ast.BlockStmt) {
	var events []teeEvent
	var returns []*ast.ReturnStmt
	analysis.InspectOwn(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.DeferStmt:
			// A deferred Unlock is the balanced owner idiom, not a window.
			return false
		case *ast.ReturnStmt:
			returns = append(returns, n)
		case *ast.CallExpr:
			if kind, isEv := teeEventKind(n); isEv {
				events = append(events, teeEvent{n, kind})
			}
		}
		return true
	})
	if len(events) == 0 || !events[0].unlock {
		// No token traffic, or the function owns its critical section
		// (Lock-first): the plain-mutex rules apply, not the window rule.
		return
	}
	// Walk events and returns merged in source order.
	released := false
	var openAt ast.Node
	ei, ri := 0, 0
	for ei < len(events) || ri < len(returns) {
		if ri >= len(returns) || (ei < len(events) && events[ei].pos.Pos() < returns[ri].Pos()) {
			if events[ei].unlock {
				released, openAt = true, events[ei].pos
			} else {
				released = false
			}
			ei++
			continue
		}
		if released {
			pass.Reportf(returns[ri].Pos(),
				"return inside an open TEE-token window: the token was Unlocked at %s and not re-acquired; the caller still believes it holds the token",
				pass.Fset.Position(openAt.Pos()))
		}
		ri++
	}
	if released {
		pass.Reportf(openAt.Pos(),
			"TEE token Unlocked here is never re-acquired before the function ends; callers of this dispatch window expect the token back")
	}
}

// teeEventKind classifies a call as a token transition: Unlock/Lock on a
// receiver chain ending in a field or variable named tee, or a call to a
// method/function named lockTEE (the engine's annotated re-acquire).
func teeEventKind(call *ast.CallExpr) (unlock, ok bool) {
	sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !isSel {
		if id, isID := ast.Unparen(call.Fun).(*ast.Ident); isID && id.Name == "lockTEE" {
			return false, true
		}
		return false, false
	}
	switch sel.Sel.Name {
	case "lockTEE":
		return false, true
	case "Lock", "Unlock":
		if recvIsTEE(sel.X) {
			return sel.Sel.Name == "Unlock", true
		}
	}
	return false, false
}

// recvIsTEE reports whether the receiver expression names the TEE token:
// an identifier or terminal selector called "tee".
func recvIsTEE(e ast.Expr) bool {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		return e.Name == "tee"
	case *ast.SelectorExpr:
		return e.Sel.Name == "tee"
	}
	return false
}
