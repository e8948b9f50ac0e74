package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// MapIter flags `for range` over a map in determinism-critical packages.
//
// Go randomizes map iteration order per run. In packages whose output
// must replay bit-for-bit for a fixed seed — corpus synthesis, snapshot
// writing, benchmark tables, index construction — a raw map range either
// perturbs downstream state (the PR-3 bug: synth planted control terms in
// map order, consuming the seeded RNG run-dependently) or emits bytes in
// a different order each run.
//
// Two demonstrably order-insensitive shapes are allowed without a
// directive:
//
//   - collect-then-sort: the body only appends to slices that a later
//     statement in the same block passes to sort.* or slices.Sort*;
//   - integer accumulation: the body is a single x++/x--/x op= e with an
//     integer target and a call-free right-hand side (integer addition
//     commutes; float accumulation does not and stays flagged).
//
// Anything else needs a sort first or a justified //tixlint:ignore.
var MapIter = &Analyzer{
	Name: "mapiter",
	Doc:  "range over map in a determinism-critical package (synth, shard, bench, index, db, postings)",
	Run:  runMapIter,
}

// mapiterPkgs are the determinism-critical package segments: corpus
// generation, sharded execution + the snapshot file, benchmark/golden
// emission, index + snapshot persistence (db writes the index sections),
// and the postings codec (block encoding must be byte-stable for the
// snapshot file and the differential tests). Non-test files only; tests
// assert on artifacts rather than produce them.
var mapiterPkgs = map[string]bool{
	"synth":    true,
	"shard":    true,
	"bench":    true,
	"index":    true,
	"db":       true,
	"postings": true,
}

func runMapIter(pass *Pass) {
	if !mapiterPkgs[pass.Pkg.Segment()] {
		return
	}
	for _, file := range pass.Pkg.Files {
		if isTestFilename(pass.Filename(file.Pos())) {
			continue
		}
		walkStack(file, func(n ast.Node, stack []ast.Node) bool {
			rs, ok := n.(*ast.RangeStmt)
			if !ok {
				return true
			}
			t := pass.TypeOf(rs.X)
			if t == nil {
				return true
			}
			if _, isMap := t.Underlying().(*types.Map); !isMap {
				return true
			}
			if mapRangeIsOrderInsensitive(pass, rs, stack) {
				return true
			}
			pass.Reportf(rs.For,
				"range over map in determinism-critical package %q: iteration order is randomized per run — sort the keys first (the PR-3 synth bug planted terms in map order and consumed the RNG run-dependently)",
				pass.Pkg.Segment())
			return true
		})
	}
}

// mapRangeIsOrderInsensitive recognizes the two allowed shapes.
func mapRangeIsOrderInsensitive(pass *Pass, rs *ast.RangeStmt, stack []ast.Node) bool {
	return isIntegerAccumulation(pass, rs.Body) || isCollectThenSort(pass, rs, stack)
}

// isIntegerAccumulation accepts a single-statement body of the form
// x++ / x-- / x op= e where x has integer type and e makes no calls
// other than len.
func isIntegerAccumulation(pass *Pass, body *ast.BlockStmt) bool {
	if len(body.List) != 1 {
		return false
	}
	switch st := body.List[0].(type) {
	case *ast.IncDecStmt:
		return isIntegerExpr(pass, st.X)
	case *ast.AssignStmt:
		switch st.Tok {
		case token.ADD_ASSIGN, token.SUB_ASSIGN, token.OR_ASSIGN, token.AND_ASSIGN, token.XOR_ASSIGN:
		default:
			return false
		}
		if len(st.Lhs) != 1 || len(st.Rhs) != 1 {
			return false
		}
		return isIntegerExpr(pass, st.Lhs[0]) && isCallFree(pass, st.Rhs[0])
	}
	return false
}

func isIntegerExpr(pass *Pass, e ast.Expr) bool {
	t := pass.TypeOf(e)
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsInteger != 0
}

// isCallFree reports that e contains no function calls except builtin len.
func isCallFree(pass *Pass, e ast.Expr) bool {
	clean := true
	ast.Inspect(e, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
			if b, isBuiltin := pass.ObjectOf(id).(*types.Builtin); isBuiltin && b.Name() == "len" {
				return true
			}
		}
		clean = false
		return false
	})
	return clean
}

// isCollectThenSort accepts a body whose statements all append to local
// slices, each of which is passed to a sort call by a later statement in
// the block enclosing the range.
func isCollectThenSort(pass *Pass, rs *ast.RangeStmt, stack []ast.Node) bool {
	var targets []types.Object
	for _, st := range rs.Body.List {
		obj := appendTarget(pass, st)
		if obj == nil {
			return false
		}
		targets = append(targets, obj)
	}
	if len(targets) == 0 {
		return false
	}
	if len(stack) == 0 {
		return false
	}
	block, ok := stack[len(stack)-1].(*ast.BlockStmt)
	if !ok {
		return false
	}
	idx := -1
	for i, st := range block.List {
		if st == ast.Stmt(rs) {
			idx = i
			break
		}
	}
	if idx < 0 {
		return false
	}
	for _, obj := range targets {
		sorted := false
		for _, st := range block.List[idx+1:] {
			if stmtSorts(pass, st, obj) {
				sorted = true
				break
			}
		}
		if !sorted {
			return false
		}
	}
	return true
}

// appendTarget returns the slice variable when st is `v = append(v, ...)`.
func appendTarget(pass *Pass, st ast.Stmt) types.Object {
	as, ok := st.(*ast.AssignStmt)
	if !ok || as.Tok != token.ASSIGN || len(as.Lhs) != 1 || len(as.Rhs) != 1 {
		return nil
	}
	lhs, ok := as.Lhs[0].(*ast.Ident)
	if !ok {
		return nil
	}
	call, ok := as.Rhs[0].(*ast.CallExpr)
	if !ok || len(call.Args) == 0 {
		return nil
	}
	fn, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return nil
	}
	if b, isBuiltin := pass.ObjectOf(fn).(*types.Builtin); !isBuiltin || b.Name() != "append" {
		return nil
	}
	first, ok := ast.Unparen(call.Args[0]).(*ast.Ident)
	if !ok {
		return nil
	}
	obj := pass.ObjectOf(lhs)
	if obj == nil || pass.ObjectOf(first) != obj {
		return nil
	}
	return obj
}

// sortFuncs are the recognized sorting entry points in sort and slices.
var sortFuncs = map[string]map[string]bool{
	"sort": {
		"Strings": true, "Ints": true, "Float64s": true,
		"Slice": true, "SliceStable": true, "Sort": true, "Stable": true,
	},
	"slices": {
		"Sort": true, "SortFunc": true, "SortStableFunc": true,
	},
}

// stmtSorts reports whether st contains a sort.*/slices.Sort* call whose
// first argument is obj.
func stmtSorts(pass *Pass, st ast.Stmt, obj types.Object) bool {
	found := false
	ast.Inspect(st, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || len(call.Args) == 0 {
			return true
		}
		pkg, name, ok := pkgFuncCall(pass, call)
		if !ok || !sortFuncs[pkg][name] {
			return true
		}
		if arg, ok := ast.Unparen(call.Args[0]).(*ast.Ident); ok && pass.ObjectOf(arg) == obj {
			found = true
			return false
		}
		return true
	})
	return found
}
