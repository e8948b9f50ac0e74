package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
)

// runSet runs every workload once and returns the results by workload
// name; ok is false when any run failed or answered wrongly.
func runSet(cfg runConfig, traced bool) (map[string]result, bool) {
	out := map[string]result{}
	ok := true
	for _, w := range workloads {
		res, err := runOne(w, cfg, traced)
		if err != nil {
			fmt.Fprintf(cfg.log, "%s: %v\n", w.name, err)
			ok = false
			continue
		}
		out[w.name] = res
		ok = ok && res.Correct
	}
	return out, ok
}

func decls(traced bool) []metricDecl {
	if traced {
		return perLayer
	}
	return endToEnd
}

// runAll is the one command that prints every metric by name with its
// unit for every workload.
func runAll(cfg runConfig, traced bool) bool {
	set, ok := runSet(cfg, traced)
	for _, w := range workloads {
		res, ran := set[w.name]
		if !ran {
			continue
		}
		fmt.Printf("%s  (attempted %d, failed %d, error_rate %.6f)\n", w.name, res.Attempted, res.Failed,
			float64(res.Failed)/float64(res.Attempted))
		for _, d := range decls(traced) {
			fmt.Printf("  %-34s %14.4f %s\n", d.name, res.Metrics[d.name].Value, d.unit)
		}
	}
	return ok
}

// worsening is how much worse b is than a, as a share of a, in the
// metric's own direction (negative = better).
func worsening(d metricDecl, a, b float64) float64 {
	if a == 0 {
		return 0
	}
	if d.better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// selfCheck runs the full set twice on the same code. The two sets can
// differ only by noise, so a metric whose sets differ by more than its
// bound is unresolved: the benchmark could not tell a regression of that
// size from its own spread. A wrong or failed answer fails the row.
func selfCheck(cfg runConfig) bool {
	tiny := workloads[0]
	tiny.docs, tiny.replicas = 500, 1
	if st, err := startStack(tiny, cfg.seed, nil); err == nil {
		rtt, _ := nullRTT(st.addr, 2000)
		st.close()
		fmt.Printf("generator: client.null_rtt_us %.1f, GOMAXPROCS %d, nproc %d, %s\n",
			rtt, runtime.GOMAXPROCS(0), runtime.NumCPU(), runtime.Version())
	}
	first, ok1 := runSet(cfg, false)
	second, ok2 := runSet(cfg, false)
	allPass := ok1 && ok2
	for _, w := range workloads {
		a, b := first[w.name], second[w.name]
		for _, d := range endToEnd {
			x, y := a.Metrics[d.name].Value, b.Metrics[d.name].Value
			diff := math.Abs(worsening(d, x, y))
			verdict := "pass"
			switch {
			case a.Failed+b.Failed > 0 || a.Attempted == 0 || b.Attempted == 0:
				verdict = "fail"
			case diff > d.bound:
				verdict = "unresolved"
			}
			if verdict != "pass" {
				allPass = false
			}
			fmt.Printf("%-11s %-17s %12.4f %12.4f %s  differ %5.1f%% (bound %2.0f%%)  %s\n",
				w.name, d.name, x, y, d.unit, 100*diff, 100*d.bound, verdict)
		}
	}
	return allPass
}

// writeBaseline records five untraced sets and one traced set.
func writeBaseline(cfg runConfig, path string) error {
	type e2e struct {
		Median float64   `json:"median"`
		Unit   string    `json:"unit"`
		Values []float64 `json:"values"`
	}
	type entry struct {
		EndToEnd map[string]*e2e   `json:"end_to_end"`
		PerLayer map[string]metric `json:"per_layer"`
	}
	doc := struct {
		Seed      int64             `json:"seed"`
		Seconds   float64           `json:"seconds"`
		Go        string            `json:"go"`
		NumCPU    int               `json:"nproc"`
		Workloads map[string]*entry `json:"workloads"`
	}{cfg.seed, cfg.seconds, runtime.Version(), runtime.NumCPU(), map[string]*entry{}}
	for _, w := range workloads {
		doc.Workloads[w.name] = &entry{EndToEnd: map[string]*e2e{}}
	}
	for i := 0; i < 5; i++ {
		set, ok := runSet(cfg, false)
		if !ok {
			return fmt.Errorf("baseline set %d had failures", i+1)
		}
		for name, res := range set {
			for _, d := range endToEnd {
				m := doc.Workloads[name].EndToEnd[d.name]
				if m == nil {
					m = &e2e{Unit: d.unit}
					doc.Workloads[name].EndToEnd[d.name] = m
				}
				m.Values = append(m.Values, res.Metrics[d.name].Value)
				m.Median = median(m.Values)
			}
		}
	}
	set, ok := runSet(cfg, true)
	if !ok {
		return fmt.Errorf("traced baseline set had failures")
	}
	for name, res := range set {
		doc.Workloads[name].PerLayer = res.Metrics
	}
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
