package lint

import (
	"go/ast"
	"go/types"
)

// AliasRet mechanizes the PR 6 Store.Docs() bug: an exported accessor in
// the storage tier returned the store's internal map, so a caller
// iterating it raced every concurrent ingest despite the store's own
// locking being correct. The fix was to copy under the lock; this
// analyzer makes the copy mandatory.
//
// It flags exported functions and methods in the data-owning packages
// (storage, index, db, shard, rescache) that return a slice- or
// map-typed expression rooted at the receiver or at a package-level
// variable — a direct field selection or a reslice of one, neither of
// which copies. Genuinely zero-copy accessors are legitimate in hot
// paths, but they must say so: suppress with a directive whose reason
// names the caller contract that makes the aliasing safe.
var AliasRet = &Analyzer{
	Name: "aliasret",
	Doc:  "exported accessor returns an internal slice/map without copying",
	Run:  runAliasRet,
}

// aliasRetSegs are the packages that own long-lived mutable state behind
// locks; aliasing their internals out is what made the PR 6 bug a race.
var aliasRetSegs = map[string]bool{
	"storage": true, "index": true, "db": true, "shard": true, "rescache": true,
}

func runAliasRet(pass *Pass) {
	if !aliasRetSegs[pass.Pkg.Segment()] {
		return
	}
	for _, file := range pass.Pkg.Files {
		if isTestFilename(pass.Filename(file.Pos())) {
			continue
		}
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || !fd.Name.IsExported() || fd.Body == nil {
				continue
			}
			var recvObj types.Object
			if fd.Recv != nil && len(fd.Recv.List) == 1 && len(fd.Recv.List[0].Names) == 1 {
				recvObj = pass.ObjectOf(fd.Recv.List[0].Names[0])
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if _, isLit := n.(*ast.FuncLit); isLit {
					return false // a literal's return is not the accessor's return
				}
				ret, ok := n.(*ast.ReturnStmt)
				if !ok {
					return true
				}
				for _, res := range ret.Results {
					checkAliasedResult(pass, fd, recvObj, res)
				}
				return true
			})
		}
	}
}

// checkAliasedResult flags res when it evaluates to a slice or map that
// aliases state owned by the receiver or by a package-level variable.
func checkAliasedResult(pass *Pass, fd *ast.FuncDecl, recvObj types.Object, res ast.Expr) {
	t := pass.TypeOf(res)
	if t == nil {
		return
	}
	switch t.Underlying().(type) {
	case *types.Slice, *types.Map:
	default:
		return
	}

	e := ast.Unparen(res)
	for {
		if sl, ok := e.(*ast.SliceExpr); ok {
			e = ast.Unparen(sl.X) // reslicing shares the backing array
			continue
		}
		if ix, ok := e.(*ast.IndexExpr); ok {
			e = ast.Unparen(ix.X) // m[k] of slice/map element type aliases too
			continue
		}
		break
	}
	var obj types.Object
	var desc string
	switch x := e.(type) {
	case *ast.SelectorExpr:
		if sel, ok := pass.Pkg.Info.Selections[x]; !ok || sel.Kind() != types.FieldVal {
			return
		}
		root := rootIdent(x.X)
		if root == nil {
			return
		}
		obj = pass.ObjectOf(root)
		desc = describeAlias(x)
	case *ast.Ident:
		// A bare identifier only aliases owned state when it is a
		// package-level variable (locals are the caller's problem, and
		// returning the receiver itself hands back nothing new).
		obj = pass.ObjectOf(x)
		if obj == recvObj {
			return
		}
		desc = x.Name
	default:
		return
	}
	if obj == nil {
		return
	}
	owned := obj == recvObj && recvObj != nil
	if !owned {
		// Package-level variable: same aliasing hazard, no receiver.
		if v, isVar := obj.(*types.Var); isVar && v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
			owned = true
		}
	}
	if !owned {
		return
	}
	pass.Reportf(res.Pos(),
		"exported %s returns internal %s without copying: callers can read and mutate it outside the owner's lock (the PR 6 Store.Docs aliasing race) — return a copy, or suppress with the caller contract that makes zero-copy safe",
		fd.Name.Name, desc)
}

// rootIdent unwraps a selector/index chain to its base identifier.
func rootIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.Ident:
			return x
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// describeAlias renders the selected field for the message ("s.docs").
func describeAlias(sel *ast.SelectorExpr) string {
	if root := rootIdent(sel.X); root != nil {
		return root.Name + "." + sel.Sel.Name
	}
	return sel.Sel.Name
}
