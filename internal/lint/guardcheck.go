package lint

import (
	"go/ast"
)

// GuardCheck flags loops in the execution packages that fetch node
// records through storage/index accessors — or step postings cursors
// through compressed blocks — without consulting the query's exec.Guard.
//
// PR 2's invariant: every access method charges its storage touches
// against one cooperative Guard (Tick/NoteEmit/Check), so cancellation,
// deadlines, and the shared access budget latch within one check
// interval. A loop that fetches records but never consults the guard
// reopens the runaway-query hole — it keeps reading after the budget is
// exhausted or the client has gone away.
//
// A loop counts as guarded when its outermost enclosing loop body
// mentions the guard machinery at all: a *exec.Guard value (method call,
// argument, capture) or a *storage.AccessBudget. Bounded result-assembly
// loops that genuinely need no guard take a //tixlint:ignore with the
// bound as the reason.
var GuardCheck = &Analyzer{
	Name: "guardcheck",
	Doc:  "storage-access loop without exec.Guard consultation in internal/exec or internal/shard",
	Run:  runGuardCheck,
}

var guardcheckPkgs = map[string]bool{"exec": true, "shard": true}

// accessorMethods lists index accessors charged per call; storage.Accessor
// methods all charge, so any method on it counts.
var indexAccessorMethods = map[string]bool{"Postings": true}

// Postings consumption is charged the same way: cursor methods that
// decode or step through compressed blocks, and the whole-list decoders.
// (exec aliases index.Cursor/List to these, so the named types resolve
// to package postings.)
var postingsCursorMethods = map[string]bool{"Cur": true, "Advance": true, "SeekPos": true}
var postingsListMethods = map[string]bool{"Materialize": true, "AppendDocCounts": true}

func runGuardCheck(pass *Pass) {
	if !guardcheckPkgs[pass.Pkg.Segment()] {
		return
	}
	for _, file := range pass.Pkg.Files {
		if isTestFilename(pass.Filename(file.Pos())) {
			continue
		}
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			funcGuarded := mentionsGuard(pass, fd.Body)
			walkStack(fd.Body, func(n ast.Node, stack []ast.Node) bool {
				if !isLoop(n) {
					return true
				}
				// Only outermost loops: an inner loop is covered by
				// its enclosing loop's verdict (a guard consult per
				// outer iteration bounds the whole nest's exposure).
				for _, anc := range stack {
					if isLoop(anc) {
						return true
					}
				}
				body := loopBody(n)
				acc := firstAccessorCall(pass, body)
				if acc == "" || mentionsGuard(pass, body) {
					return true
				}
				hint := "no guard is in scope — thread the query's *exec.Guard in and Tick per iteration"
				if funcGuarded {
					hint = "the function consults a guard elsewhere, but not within this loop"
				}
				pass.Reportf(n.Pos(),
					"loop calls storage accessor %s without consulting exec.Guard: cancellation and the access budget are unenforced here (%s)",
					acc, hint)
				return true
			})
		}
	}
}

func isLoop(n ast.Node) bool {
	switch n.(type) {
	case *ast.ForStmt, *ast.RangeStmt:
		return true
	}
	return false
}

func loopBody(n ast.Node) *ast.BlockStmt {
	switch l := n.(type) {
	case *ast.ForStmt:
		return l.Body
	case *ast.RangeStmt:
		return l.Body
	}
	return nil
}

// firstAccessorCall returns the printed name of the first charged
// accessor call in n, or "".
func firstAccessorCall(pass *Pass, n ast.Node) string {
	found := ""
	ast.Inspect(n, func(node ast.Node) bool {
		if found != "" {
			return false
		}
		call, ok := node.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok {
			return true
		}
		recv := pass.TypeOf(sel.X)
		switch {
		case typeFromPkg(recv, "storage", "Accessor"):
			found = "Accessor." + sel.Sel.Name
		case typeFromPkg(recv, "index", "Index") && indexAccessorMethods[sel.Sel.Name]:
			found = "Index." + sel.Sel.Name
		case typeFromPkg(recv, "postings", "Cursor") && postingsCursorMethods[sel.Sel.Name]:
			found = "Cursor." + sel.Sel.Name
		case typeFromPkg(recv, "postings", "List") && postingsListMethods[sel.Sel.Name]:
			found = "List." + sel.Sel.Name
		}
		return true
	})
	return found
}

// mentionsGuard reports whether n's subtree references the guard
// machinery: any expression of type exec.Guard or storage.AccessBudget
// (method calls on a guard, a guard passed as an argument or captured by
// a worker closure, a budget charge).
func mentionsGuard(pass *Pass, n ast.Node) bool {
	found := false
	ast.Inspect(n, func(node ast.Node) bool {
		if found {
			return false
		}
		e, ok := node.(ast.Expr)
		if !ok {
			return true
		}
		t := pass.TypeOf(e)
		if typeFromPkg(t, "exec", "Guard") || typeFromPkg(t, "storage", "AccessBudget") {
			found = true
			return false
		}
		return true
	})
	return found
}
