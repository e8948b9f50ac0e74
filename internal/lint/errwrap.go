package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strconv"
)

// ErrWrap enforces PR 2's error-taxonomy invariant in every package:
// typed sentinel errors (exec.ErrCanceled, exec.ErrLimitExceeded,
// storage.ErrInjectedFault, db.ErrCorruptSnapshot, ...) must stay
// classifiable with errors.Is through arbitrary wrapping.
//
// Two patterns silently break that chain:
//
//   - fmt.Errorf("...: %v", err) — formats the error's text but severs
//     Unwrap, so errors.Is(wrapped, Sentinel) turns false; use %w;
//   - err == Sentinel / err != Sentinel — identity comparison misses
//     every wrapped occurrence; use errors.Is.
//
// Both are flagged wherever they appear, tests included — the
// differential suites classify errors too. Intentional flattening (an
// API boundary that must not expose its internals) takes a
// //tixlint:ignore with that justification.
var ErrWrap = &Analyzer{
	Name: "errwrap",
	Doc:  "error wrapped with %v/%s instead of %w, or ==/!= against a sentinel error instead of errors.Is",
	Run:  runErrWrap,
}

func runErrWrap(pass *Pass) {
	for _, file := range pass.Pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch node := n.(type) {
			case *ast.CallExpr:
				checkErrorfWrap(pass, node)
			case *ast.BinaryExpr:
				checkSentinelCompare(pass, node)
			}
			return true
		})
	}
}

// checkErrorfWrap flags fmt.Errorf verbs that format an error value
// without wrapping it.
func checkErrorfWrap(pass *Pass, call *ast.CallExpr) {
	if !isPkgFunc(pass, call, "fmt", "Errorf") || len(call.Args) == 0 {
		return
	}
	lit, ok := ast.Unparen(call.Args[0]).(*ast.BasicLit)
	if !ok || lit.Kind != token.STRING {
		return
	}
	format, err := strconv.Unquote(lit.Value)
	if err != nil {
		return
	}
	verbs, ok := formatVerbs(format)
	if !ok {
		return // indexed or otherwise exotic format; stay silent
	}
	for i, verb := range verbs {
		argIdx := 1 + i
		if argIdx >= len(call.Args) {
			break
		}
		if verb != 'v' && verb != 's' {
			continue
		}
		arg := call.Args[argIdx]
		if t := pass.TypeOf(arg); implementsError(t) {
			pass.Reportf(arg.Pos(),
				"error formatted with %%%c loses its wrap chain: use %%w so callers can classify it with errors.Is/errors.As", verb)
		}
	}
}

// formatVerbs returns the verb letter for each argument a Printf-style
// format consumes, in order. A '*' width/precision consumes an argument
// and is recorded as '*'. Explicit argument indexes (%[n]d) make the
// mapping positional-unsafe, so the check bails out (ok=false).
func formatVerbs(format string) ([]rune, bool) {
	var verbs []rune
	for i := 0; i < len(format); i++ {
		if format[i] != '%' {
			continue
		}
		i++
		if i >= len(format) {
			break
		}
		if format[i] == '%' {
			continue
		}
		// Flags, width, precision.
		for i < len(format) {
			c := format[i]
			if c == '[' {
				return nil, false
			}
			if c == '*' {
				verbs = append(verbs, '*')
				i++
				continue
			}
			if c == '+' || c == '-' || c == '#' || c == ' ' || c == '0' || c == '.' || (c >= '1' && c <= '9') {
				i++
				continue
			}
			break
		}
		if i < len(format) {
			verbs = append(verbs, rune(format[i]))
		}
	}
	return verbs, true
}

// checkSentinelCompare flags ==/!= where one side is an error value and
// the other is a package-level error variable (a sentinel).
func checkSentinelCompare(pass *Pass, be *ast.BinaryExpr) {
	if be.Op != token.EQL && be.Op != token.NEQ {
		return
	}
	x, y := ast.Unparen(be.X), ast.Unparen(be.Y)
	if isNilIdent(pass, x) || isNilIdent(pass, y) {
		return
	}
	if !implementsError(pass.TypeOf(x)) || !implementsError(pass.TypeOf(y)) {
		return
	}
	name := sentinelName(pass, x)
	if name == "" {
		name = sentinelName(pass, y)
	}
	if name == "" {
		return
	}
	pass.Reportf(be.OpPos,
		"comparison against sentinel error %s with %s: wrapped errors never match — use errors.Is",
		name, be.Op)
}

// sentinelName returns the name of e when it denotes a package-level
// error variable, else "".
func sentinelName(pass *Pass, e ast.Expr) string {
	var id *ast.Ident
	switch v := e.(type) {
	case *ast.Ident:
		id = v
	case *ast.SelectorExpr:
		id = v.Sel
	default:
		return ""
	}
	obj, ok := pass.ObjectOf(id).(*types.Var)
	if !ok || obj.Pkg() == nil {
		return ""
	}
	if obj.Parent() != obj.Pkg().Scope() {
		return "" // not package-level
	}
	if !implementsError(obj.Type()) {
		return ""
	}
	return obj.Name()
}

// isNilIdent reports whether e is the predeclared nil.
func isNilIdent(pass *Pass, e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	if !ok {
		return false
	}
	_, isNil := pass.ObjectOf(id).(*types.Nil)
	return isNil
}
