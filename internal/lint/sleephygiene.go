package lint

import (
	"go/ast"
)

// SleepHygiene flags bare time.Sleep calls in the serving tier's library
// packages. A bare sleep in a retry or wait path ignores cancellation: it
// holds the request's goroutine — and, behind admission control, its
// concurrency slot — hostage after the client has gone away, turning a
// transient stall into queue growth. Library code must wait through a
// context-aware helper (fleet.Sleep, or an explicit timer + select on
// ctx.Done()); jittered retry delays go through fleet.Backoff.Wait.
//
// Test files are exempt — a test pacing itself with time.Sleep holds no
// client's resources. Legitimate library sleeps (deterministic latency
// injection in the fault injector) carry a justified //tixlint:ignore.
var SleepHygiene = &Analyzer{
	Name: "sleephygiene",
	Doc:  "bare time.Sleep in a library retry/wait path (use a ctx-aware wait: fleet.Sleep or timer+select)",
	Run:  runSleepHygiene,
}

// sleepPkgs are the request-path packages where an uncancellable wait
// blocks a live client: the serving tier, the engines behind it, and the
// storage layer they read.
var sleepPkgs = map[string]bool{
	"fleet": true, "server": true, "db": true,
	"shard": true, "exec": true, "storage": true,
}

func runSleepHygiene(pass *Pass) {
	if !sleepPkgs[pass.Pkg.Segment()] {
		return
	}
	for _, file := range pass.Pkg.Files {
		if isTestFilename(pass.Filename(file.Pos())) {
			continue
		}
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			pkg, name, ok := pkgFuncCall(pass, call)
			if !ok {
				return true
			}
			if pkg == "time" && name == "Sleep" {
				pass.Reportf(call.Pos(),
					"bare time.Sleep in library package %q ignores cancellation and holds the caller's goroutine (and admission slot) hostage: wait via a ctx-aware helper (fleet.Sleep, or a time.Timer select against ctx.Done())", pass.Pkg.Segment())
			}
			return true
		})
	}
}
