// Command tixbench regenerates the experimental evaluation of the paper
// (Sec. 6): Tables 1–5 and the Pick timing experiment, over the synthetic
// INEX-like corpus with control terms planted at the frequencies each
// table sweeps.
//
// Usage:
//
//	tixbench [-table all|1|2|3|4|5|pick|shards|index|ingest] [-articles N] [-seed S] [-runs R] [-json]
//	tixbench -table shards -shards 1,2,4,8 -json
//	tixbench -table hotpath|hotpath-gate|hotpath-1m [-json]
//
// The "index" table reports the block-compressed index itself: the
// postings-memory accounting (encoded vs raw bytes and the compression
// ratio), corpus build time, and full-vocabulary decode throughput.
//
// The "ingest" table measures the live-mutation path: per-document add
// throughput into an empty database, the same run under a concurrent
// search loop, and the cost of compacting the resulting memtable/segment
// stack back to one flat index. Each row self-checks against a
// bulk-loaded oracle.
//
// The "shards" experiment splits the corpus into parts, loads them into
// sharded databases at each requested shard count, and times the parallel
// TermJoin fan-out (scored merge included) — including a planted
// high-frequency pair (-shard-freq) beyond the Table 1 sweep. On a
// single-core host expect parity rather than speedup.
//
// The "hotpath" tables time TermJoin, TopKTermJoin and PhraseFinder over
// streamed 20k- and 1M-document corpora (seconds, allocs and bytes per
// op). They gate nothing; internal/bench's golden test pins the 20k
// tier's access counts and allocation ceilings.
//
// With -json, the selected tables are emitted to stdout as one JSON array
// of table objects (id, caption, columns, rows with per-cell seconds,
// result counts, and store access stats) — the machine-readable record a
// perf trajectory is diffed against.
//
// Absolute seconds are machine-dependent; the shapes to compare against
// the paper are the orderings and ratios (see EXPERIMENTS.md).
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/bench"
)

func main() {
	var (
		table    = flag.String("table", "all", "which experiment: all, 1, 2, 3, 4, 5, pick, shards, index, ingest, hotpath (or hotpath-<tier>)")
		articles = flag.Int("articles", 5000, "synthetic corpus size in articles (~90 elements each)")
		seed     = flag.Int64("seed", 42, "corpus generation seed")
		runs     = flag.Int("runs", 3, "timed runs per cell (trimmed mean)")
		small    = flag.Bool("small", false, "use the reduced test-scale configuration")
		csv      = flag.Bool("csv", false, "emit CSV instead of the aligned table layout")
		jsonF    = flag.Bool("json", false, "emit machine-readable JSON instead of the aligned table layout")
		access   = flag.Bool("access", false, "also print per-cell store node-read counts")
		shards   = flag.String("shards", "", "comma-separated shard counts for the shards experiment (default 1,2,4,8)")
		shardFq  = flag.Int("shard-freq", 150000, "frequency of the extra planted pair for the shards experiment (0 = none)")
	)
	flag.Parse()
	csvOut = *csv
	jsonOut = *jsonF
	accessOut = *access
	counts, err := parseCounts(*shards)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tixbench:", err)
		os.Exit(1)
	}
	shardCounts = counts
	if err := run(*table, *articles, *seed, *runs, *small, *shardFq); err != nil {
		fmt.Fprintln(os.Stderr, "tixbench:", err)
		os.Exit(1)
	}
}

func run(table string, articles int, seed int64, runs int, small bool, shardFreq int) error {
	bench.Runs = runs

	cfg := bench.DefaultConfig()
	if small {
		cfg = bench.SmallConfig()
	}
	cfg.Articles = articles
	cfg.Seed = seed
	cfg.Runs = runs
	if table == "all" || strings.Contains(table, "shards") {
		cfg.ShardFreq = shardFreq
	}
	if table == "pick" {
		// The Pick experiment needs no corpus.
		return writeTables(nil, []string{"pick"}, seed)
	}
	if table == "hotpath" || strings.HasPrefix(table, "hotpath-") {
		// The hot-path rig streams its own corpus per tier; "hotpath" runs
		// every tier, "hotpath-<name>" just one.
		which := strings.Split(table, ",")
		if table == "hotpath" {
			which = which[:0]
			for _, t := range bench.HotpathTiers {
				which = append(which, "hotpath-"+t.Name)
			}
		}
		return writeTables(nil, which, seed)
	}

	fmt.Fprintf(os.Stderr, "building corpus (%d articles, seed %d)...\n", cfg.Articles, cfg.Seed)
	c, err := bench.Build(cfg)
	if err != nil {
		return err
	}
	st := c.Index
	fmt.Fprintf(os.Stderr, "corpus ready: %d nodes, %d terms, %d occurrences\n",
		st.Store().NumNodes(), st.NumTerms(), st.TotalOccurrences())

	var which []string
	if table == "all" {
		which = []string{"1", "2", "3", "4", "5", "pick", "ablation", "shards", "index", "ingest"}
	} else {
		which = strings.Split(table, ",")
	}
	return writeTables(c, which, seed)
}

func writeTables(c *bench.Corpus, which []string, seed int64) error {
	var jsonTables []*bench.Table
	for _, w := range which {
		var t *bench.Table
		var err error
		switch strings.TrimSpace(w) {
		case "1":
			t, err = c.Table1()
		case "2":
			t, err = c.Table2()
		case "3":
			t, err = c.Table3()
		case "4":
			t, err = c.Table4()
		case "5":
			t, err = c.Table5()
		case "pick":
			t, err = bench.PickTable(seed, nil)
		case "ablation":
			t, err = c.Ablations()
		case "shards":
			t, err = c.ShardTable(shardCounts)
		case "index":
			t, err = c.IndexTable()
		case "ingest":
			t, err = c.IngestTable()
		default:
			name, ok := strings.CutPrefix(strings.TrimSpace(w), "hotpath-")
			if !ok {
				return fmt.Errorf("unknown table %q", w)
			}
			var spec bench.HotpathTierSpec
			if spec, err = bench.HotpathTier(name); err != nil {
				return err
			}
			fmt.Fprintf(os.Stderr, "building hotpath tier %q (%d docs, streamed)...\n", spec.Name, spec.Docs)
			t, err = bench.HotpathTable(spec, seed)
		}
		if err != nil {
			return err
		}
		if jsonOut {
			jsonTables = append(jsonTables, t)
			continue
		}
		if csvOut {
			fmt.Printf("# %s: %s\n", t.ID, t.Caption)
			if err := t.WriteCSV(os.Stdout); err != nil {
				return err
			}
			continue
		}
		if err := t.Write(os.Stdout); err != nil {
			return err
		}
		if accessOut {
			if err := t.WriteAccess(os.Stdout); err != nil {
				return err
			}
		}
		printShape(t)
	}
	if jsonOut {
		return bench.WriteAllJSON(os.Stdout, jsonTables)
	}
	return nil
}

// Rendering modes (set from flags).
var (
	csvOut      bool
	jsonOut     bool
	accessOut   bool
	shardCounts []int
)

// parseCounts parses the -shards list ("" = bench.ShardCounts default).
func parseCounts(s string) ([]int, error) {
	if strings.TrimSpace(s) == "" {
		return nil, nil
	}
	var out []int
	for _, part := range strings.Split(s, ",") {
		n := 0
		if _, err := fmt.Sscanf(strings.TrimSpace(part), "%d", &n); err != nil || n < 1 {
			return nil, fmt.Errorf("bad -shards entry %q", part)
		}
		out = append(out, n)
	}
	return out, nil
}

// printShape summarizes the qualitative comparisons the paper draws from
// each table.
func printShape(t *bench.Table) {
	switch t.ID {
	case "table1", "table2", "table3", "table4":
		last := t.Rows[len(t.Rows)-1]
		if r, ok := last.Ratio(bench.MComp1, bench.MTermJoin); ok {
			fmt.Printf("   shape: Comp1/TermJoin at max x = %.1fx\n", r)
		}
		if r, ok := last.Ratio(bench.MComp2, bench.MTermJoin); ok {
			fmt.Printf("   shape: Comp2/TermJoin at max x = %.1fx\n", r)
		}
		if r, ok := last.Ratio(bench.MGenMeet, bench.MTermJoin); ok {
			fmt.Printf("   shape: GenMeet/TermJoin at max x = %.1fx\n", r)
		}
		if r, ok := last.Ratio(bench.MTermJoin, bench.MEnhancedTermJoin); ok {
			fmt.Printf("   shape: TermJoin/Enhanced at max x = %.1fx\n", r)
		}
	case "shards":
		if len(t.Columns) >= 2 {
			last := t.Rows[len(t.Rows)-1]
			if r, ok := last.Ratio(t.Columns[0], t.Columns[len(t.Columns)-1]); ok {
				fmt.Printf("   shape: %s/%s at max frequency = %.2fx\n",
					t.Columns[0], t.Columns[len(t.Columns)-1], r)
			}
		}
	case "table5":
		worst, best := 0.0, 1e18
		for _, row := range t.Rows {
			if r, ok := row.Ratio(bench.MComp3, bench.MPhraseFinder); ok {
				if r > worst {
					worst = r
				}
				if r < best {
					best = r
				}
			}
		}
		fmt.Printf("   shape: Comp3/PhraseFinder ratio range = %.1fx .. %.1fx\n", best, worst)
	}
	fmt.Println()
}
