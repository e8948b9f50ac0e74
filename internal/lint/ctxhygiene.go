package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// CtxHygiene enforces context propagation in library packages (everything
// outside package main; test files are exempt — tests are root callers).
//
// PR 2 threaded cancellation through every layer; a library function that
// conjures its own context.Background() (or accepts a ctx and ignores it)
// silently detaches everything below it from the caller's deadline and
// cancellation — the exact hole the Guard work closed.
//
// Three rules:
//
//   - a function that receives a context.Context must not call
//     context.Background()/TODO(), except to default a nil ctx inside an
//     `if ctx == nil` guard (error otherwise);
//   - a function without a ctx parameter may use context.Background()
//     only as an argument to a *Context-suffixed call — the documented
//     compat-wrapper shape (Query delegating to QueryContext); anything
//     else warns;
//   - a named context.Context parameter that the body never references
//     warns: either propagate it or drop it.
//
// Detached lifetimes that must outlive the caller (a server's drain
// context during shutdown) are real but rare; they take a
// //tixlint:ignore naming that intent.
var CtxHygiene = &Analyzer{
	Name: "ctxhygiene",
	Doc:  "context.Background()/TODO() in library code, or a context parameter that is never propagated",
	Run:  runCtxHygiene,
}

func runCtxHygiene(pass *Pass) {
	if pass.Pkg.Name == "main" {
		return
	}
	for _, file := range pass.Pkg.Files {
		if isTestFilename(pass.Filename(file.Pos())) {
			continue
		}
		walkStack(file, func(n ast.Node, stack []ast.Node) bool {
			switch node := n.(type) {
			case *ast.CallExpr:
				checkBackgroundCall(pass, node, stack)
			case *ast.FuncDecl:
				if node.Body != nil {
					checkUnusedCtxParam(pass, node, node.Body)
				}
			}
			return true
		})
	}
}

// checkBackgroundCall applies the first two rules to one
// context.Background()/TODO() call site.
func checkBackgroundCall(pass *Pass, call *ast.CallExpr, stack []ast.Node) {
	var what string
	switch {
	case isPkgFunc(pass, call, "context", "Background"):
		what = "context.Background()"
	case isPkgFunc(pass, call, "context", "TODO"):
		what = "context.TODO()"
	default:
		return
	}

	for _, fn := range enclosingFuncs(stack) {
		params := ctxParamObjects(pass, fn)
		if len(params) == 0 {
			continue
		}
		if nilGuarded(pass, stack, fn, params) {
			return // `if ctx == nil { ctx = context.Background() }` defaulting
		}
		pass.Reportf(call.Pos(),
			"%s constructed in a function that already receives a context.Context: this detaches the call tree from the caller's cancellation and deadline — propagate the parameter", what)
		return
	}

	// No enclosing function takes a context. The compat-wrapper shape —
	// Background passed straight into a *Context variant — is the
	// sanctioned bridge from the context-free convenience API.
	if i := len(stack) - 1; i >= 0 {
		if parent, ok := stack[i].(*ast.CallExpr); ok && calleeNameEndsWithContext(parent) {
			for _, arg := range parent.Args {
				if ast.Unparen(arg) == ast.Expr(call) {
					return
				}
			}
		}
	}
	pass.Reportf(call.Pos(),
		"%s in library code outside a *Context compat wrapper: accept a context.Context from the caller instead of minting a root context", what)
}

// nilGuarded reports whether the stack (within fn) passes through an
// if-statement whose condition compares one of fn's context parameters
// to nil.
func nilGuarded(pass *Pass, stack []ast.Node, fn ast.Node, params []types.Object) bool {
	inFn := false
	for _, anc := range stack {
		if anc == fn {
			inFn = true
			continue
		}
		if !inFn {
			continue
		}
		ifst, ok := anc.(*ast.IfStmt)
		if !ok {
			continue
		}
		be, ok := ast.Unparen(ifst.Cond).(*ast.BinaryExpr)
		if !ok || be.Op != token.EQL {
			continue
		}
		for _, side := range []ast.Expr{be.X, be.Y} {
			id, ok := ast.Unparen(side).(*ast.Ident)
			if !ok {
				continue
			}
			obj := pass.ObjectOf(id)
			for _, p := range params {
				if obj == p {
					return true
				}
			}
		}
	}
	return false
}

// checkUnusedCtxParam applies the third rule to one function declaration.
func checkUnusedCtxParam(pass *Pass, fd *ast.FuncDecl, body *ast.BlockStmt) {
	for _, param := range ctxParamObjects(pass, fd) {
		used := false
		ast.Inspect(body, func(n ast.Node) bool {
			if used {
				return false
			}
			if id, ok := n.(*ast.Ident); ok && pass.Pkg.Info.Uses[id] == param {
				used = true
			}
			return true
		})
		if !used {
			pass.Reportf(fd.Pos(),
				"context parameter %q is accepted but never used: propagate it to downstream calls or remove it", param.Name())
		}
	}
}

// calleeNameEndsWithContext reports whether the call's callee identifier
// ends in "Context" (QueryContext, TermSearchContext, WithContext, ...).
func calleeNameEndsWithContext(call *ast.CallExpr) bool {
	var name string
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		name = fun.Name
	case *ast.SelectorExpr:
		name = fun.Sel.Name
	default:
		return false
	}
	return len(name) > len("Context") && name[len(name)-len("Context"):] == "Context"
}
