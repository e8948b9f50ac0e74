// Command benchmark measures TIX through the socket: it serves the real
// server.Handler() on a loopback listener in this process, drives it
// closed-loop with pre-encoded requests built from -seed, checks every
// answer, and prints one JSON result as the last line of standard output.
//
//	go run . -workload wire-cold -seed 1 -seconds 10 -trace 0   one run, end-to-end metrics
//	go run . -workload wire-cold -seed 1 -seconds 10 -trace 1   one run, per-layer metrics
//	go run .                                                     every workload, a table
//	go run . -selfcheck                                          every workload twice, compared
//
// README.md in this directory is the catalogue of workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
)

func main() {
	var (
		name      = flag.String("workload", "", "workload to run (default: all of them, as a table)")
		seed      = flag.Int64("seed", 1, "seed of the corpus and of every request sequence")
		secs      = flag.Float64("seconds", runSeconds, "length of the timed phase")
		trace     = flag.Int("trace", 0, "1 = traced run: one client, spans, replay, per-layer metrics")
		selfcheck = flag.Bool("selfcheck", false, "run every workload twice and compare against the bounds")
		baseline  = flag.String("baseline", "", "run every workload five times plus once traced and write the medians to this file")
		outDir    = flag.String("out", "out", "directory for trace files and reopen's temporary snapshots")
	)
	flag.Parse()
	cfg := runConfig{seed: *seed, seconds: *secs, warmup: 2, setupReps: setupReps, outDir: *outDir, log: os.Stderr}
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		fatal(err)
	}
	switch {
	case *selfcheck:
		if !selfCheck(cfg) {
			os.Exit(1)
		}
	case *baseline != "":
		if err := writeBaseline(cfg, *baseline); err != nil {
			fatal(err)
		}
	case *name == "":
		if !runAll(cfg, *trace == 1) {
			os.Exit(1)
		}
	default:
		w, ok := workloadByName(*name)
		if !ok {
			fatal(fmt.Errorf("unknown workload %q", *name))
		}
		res, err := runOne(w, cfg, *trace == 1)
		if err != nil {
			fatal(err)
		}
		line, err := json.Marshal(res)
		if err != nil {
			fatal(err)
		}
		// A wrong answer is reported in the line itself ("correct": false);
		// the exit code says only whether there is a line to read.
		fmt.Println(string(line))
	}
}

func runOne(w workload, cfg runConfig, traced bool) (result, error) {
	if traced {
		return runTraced(w, cfg)
	}
	return runUntraced(w, cfg)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(2)
}
