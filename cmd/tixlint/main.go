// Command tixlint runs the project's static-analysis suite: six
// per-package analyzers over go/ast + go/types that mechanically enforce
// the invariants PRs 2–8 introduced by convention — deterministic
// iteration, exec.Guard consultation, errors.Is-compatible error
// handling, context hygiene, cancellation-aware waits, and alias-free
// accessors. Each finding prints as file:line:col: [analyzer] message.
//
// Usage:
//
//	tixlint [-C dir] [packages]
//	tixlint -list
//
// Packages default to ./... relative to -C (default the current
// directory). Every run applies the full registry, including the check
// for suppression directives that match no finding. Exit status: 0 clean,
// 1 any finding, 2 load failure or bad usage.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/lint"
)

func main() {
	var (
		list = flag.Bool("list", false, "list the registered analyzers and exit")
		dir  = flag.String("C", ".", "directory of the module to analyze")
	)
	flag.Parse()

	if *list {
		lint.WriteList(os.Stdout)
		return
	}

	prog, err := lint.Load(*dir, flag.Args()...)
	if err != nil {
		fmt.Fprintf(os.Stderr, "tixlint: %v\n", err)
		os.Exit(2)
	}
	runner := &lint.Runner{Analyzers: lint.Analyzers()}
	diags := runner.Run(prog)
	for _, e := range prog.LoadErrors {
		fmt.Fprintf(os.Stderr, "tixlint: load: %s\n", e)
	}
	for _, d := range diags {
		fmt.Println(d)
	}
	if len(prog.LoadErrors) > 0 {
		os.Exit(2)
	}
	if len(diags) > 0 {
		os.Exit(1)
	}
}
