package bench

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/db"
	"repro/internal/exec"
	"repro/internal/index"
	"repro/internal/storage"
	"repro/internal/xq"
)

// The golden suite is the repository's performance gate. It pins the
// deterministic outputs of the benchmark pipeline at the test-scale
// configuration (seed 42) in testdata/golden.json:
//
//   - per paper-table cell (Tables 1–5 and shards): the result count and
//     the store traffic (storage.AccessStats), the paper's own cost
//     measure;
//   - per hot-path row of the 20k-document gate tier: the TermJoin,
//     TopKTermJoin and PhraseFinder result counts, the two joins' store
//     traffic, TopKTermJoin's DocsEvaluated and BlocksSkipped, and a
//     testing.AllocsPerRun ceiling per method (not measured under -race);
//   - for the paper's Query 1 through db.EvalQuery over query1DB: every
//     returned (Doc, Ord, Score), the evaluation's store traffic and an
//     allocs/op ceiling (not measured under -race);
//   - per topk-common row, a TopKTermJoin over corpus-common words of the
//     gate tier (topkCommonRows): its result count, store traffic,
//     DocsEvaluated, BlocksSkipped and an allocs/op ceiling.
//
// Any change to a pinned count, or an allocation count above its ceiling,
// fails; so does any row that breaks one of the paper's shape claims (see
// checkShapes). Timings are machine-dependent and are never pinned.
//
// Regenerate after an intentional change with:
//
//	go test ./internal/bench -run TestGoldenTables -update

var update = flag.Bool("update", false, "regenerate golden files")

// raceEnabled is set in race builds, where allocation counts are not
// representative and the ceilings are skipped.
var raceEnabled bool

// goldenRow pins one workload row.
type goldenRow struct {
	Label   string               `json:"label"`
	Results map[string]int       `json:"results"`
	Stats   map[string]StatsJSON `json:"stats"`
	// Hot-path rows only: TopKTermJoin's pruning counters and the
	// per-method allocs/op ceilings.
	DocsEvaluated int                `json:"docsEvaluated,omitempty"`
	BlocksSkipped int                `json:"blocksSkipped,omitempty"`
	Allocs        map[string]float64 `json:"allocs,omitempty"`
	// The Query 1 row only: every returned result, in reply order.
	Ranked []rankedResult `json:"ranked,omitempty"`
}

// rankedResult is one pinned query result.
type rankedResult struct {
	Doc   int     `json:"doc"`
	Ord   int32   `json:"ord"`
	Score float64 `json:"score"`
}

// goldenTable pins one table.
type goldenTable struct {
	ID   string      `json:"id"`
	Rows []goldenRow `json:"rows"`
}

func goldenConfig() Config {
	cfg := SmallConfig()
	cfg.Runs = 1         // timings are not pinned; one run per cell suffices
	cfg.ShardFreq = 2000 // outside the small Table 1 sweep
	return cfg
}

func snapshotTables(t *testing.T, c *Corpus) []goldenTable {
	t.Helper()
	builders := []func() (*Table, error){
		c.Table1, c.Table2, c.Table3, c.Table4, c.Table5,
		func() (*Table, error) { return c.ShardTable([]int{1, 2}) },
	}
	var out []goldenTable
	for _, build := range builders {
		tab, err := build()
		if err != nil {
			t.Fatal(err)
		}
		gt := goldenTable{ID: tab.ID}
		for _, row := range tab.Rows {
			gr := goldenRow{Label: row.Label, Results: map[string]int{}, Stats: map[string]StatsJSON{}}
			for _, cell := range row.Cells {
				if cell.Err != nil {
					t.Fatalf("table %s row %s method %s: %v", tab.ID, row.Label, cell.Method, cell.Err)
				}
				gr.Results[string(cell.Method)] = cell.M.Results
				gr.Stats[string(cell.Method)] = statsJSON(cell.M.Stats)
			}
			gt.Rows = append(gt.Rows, gr)
		}
		out = append(out, gt)
	}
	spec, err := HotpathTier("gate")
	if err != nil {
		t.Fatal(err)
	}
	gate, _, err := HotpathCorpus(spec, c.Cfg.Seed)
	if err != nil {
		t.Fatal(err)
	}
	return append(out, snapshotHotpath(t, spec, gate), snapshotQuery1(t), snapshotTopKCommon(t, gate))
}

// snapshotQuery1 evaluates Query 1 once for its results and store traffic
// and, outside -race, again under testing.AllocsPerRun.
func snapshotQuery1(t *testing.T) goldenTable {
	t.Helper()
	d, err := query1DB()
	if err != nil {
		t.Fatal(err)
	}
	q, err := xq.Parse(query1Src)
	if err != nil {
		t.Fatal(err)
	}
	idx := d.Index()
	eval := func(stats *storage.AccessStats) ([]xq.Result, error) {
		return db.EvalQuery(idx, q, exec.NewGuard(context.Background(), exec.Limits{}), stats)
	}
	var stats storage.AccessStats
	rs, err := eval(&stats)
	if err != nil {
		t.Fatal(err)
	}
	gr := goldenRow{
		Label:   "articles=300",
		Results: map[string]int{"xq": len(rs)},
		Stats:   map[string]StatsJSON{"xq": statsJSON(stats)},
	}
	for _, r := range rs {
		gr.Ranked = append(gr.Ranked, rankedResult{Doc: int(r.Doc), Ord: r.Ord, Score: r.Score})
	}
	if !raceEnabled {
		gr.Allocs = map[string]float64{"xq": testing.AllocsPerRun(5, func() { _, _ = eval(nil) })}
	}
	return goldenTable{ID: "query1", Rows: []goldenRow{gr}}
}

// snapshotHotpath runs the gate tier's hot paths over its corpus idx once
// each for their counts and, outside -race, again under
// testing.AllocsPerRun.
func snapshotHotpath(t *testing.T, spec HotpathTierSpec, idx *index.Index) goldenTable {
	t.Helper()
	gt := goldenTable{ID: "hotpath-" + spec.Name}
	for _, w := range hotpathWorkloads(spec.Docs) {
		tjN, tjStats, err := w.termJoin(idx)
		if err != nil {
			t.Fatal(err)
		}
		tk, tkN, err := w.topK(idx)
		if err != nil {
			t.Fatal(err)
		}
		pfN, err := w.phrase(idx)
		if err != nil {
			t.Fatal(err)
		}
		gr := goldenRow{
			Label:   w.label,
			Results: map[string]int{string(MTermJoin): tjN, string(MTopKTermJoin): tkN, string(MPhraseFinder): pfN},
			Stats: map[string]StatsJSON{
				string(MTermJoin):     statsJSON(tjStats),
				string(MTopKTermJoin): statsJSON(tk.AccessStats()),
			},
			DocsEvaluated: tk.DocsEvaluated,
			BlocksSkipped: tk.BlocksSkipped,
		}
		if !raceEnabled {
			// Errors were checked by the counted runs above.
			gr.Allocs = map[string]float64{
				string(MTermJoin):     testing.AllocsPerRun(5, func() { _, _, _ = w.termJoin(idx) }),
				string(MTopKTermJoin): testing.AllocsPerRun(5, func() { _, _, _ = w.topK(idx) }),
				string(MPhraseFinder): testing.AllocsPerRun(5, func() { _, _ = w.phrase(idx) }),
			}
		}
		gt.Rows = append(gt.Rows, gr)
	}
	return gt
}

// checkShapes asserts the paper's access-count claims on every row that
// carries the methods involved:
//
//   - Comp2 reads more nodes than TermJoin (Tables 1–4);
//   - EnhTermJoin, which appears only in the complex-scoring Tables 2–4,
//     reads no more nodes than TermJoin;
//   - Comp3 reads at least as many nodes as PhraseFinder (Table 5);
//   - TopKTermJoin skips blocks on every hot-path row.
func checkShapes(t *testing.T, tables []goldenTable) {
	t.Helper()
	for _, gt := range tables {
		for _, r := range gt.Rows {
			reads := func(m Method) (int64, bool) {
				s, ok := r.Stats[string(m)]
				return s.NodeReads, ok
			}
			tj, okTJ := reads(MTermJoin)
			if c2, ok := reads(MComp2); ok && okTJ && c2 <= tj {
				t.Errorf("table %s row %s: Comp2 reads %d nodes, TermJoin %d; Comp2 must read more", gt.ID, r.Label, c2, tj)
			}
			if enh, ok := reads(MEnhancedTermJoin); ok && okTJ && enh > tj {
				t.Errorf("table %s row %s: EnhTermJoin reads %d nodes, more than TermJoin's %d", gt.ID, r.Label, enh, tj)
			}
			c3, okC3 := reads(MComp3)
			if pf, ok := reads(MPhraseFinder); ok && okC3 && c3 < pf {
				t.Errorf("table %s row %s: Comp3 reads %d nodes, fewer than PhraseFinder's %d", gt.ID, r.Label, c3, pf)
			}
			if strings.HasPrefix(gt.ID, "hotpath-") && r.BlocksSkipped == 0 {
				t.Errorf("table %s row %s: TopKTermJoin skipped no blocks", gt.ID, r.Label)
			}
		}
	}
}

// compareRow reports every pinned count of want that got does not match,
// and every allocation count above its ceiling.
func compareRow(t *testing.T, table string, got, want goldenRow) {
	t.Helper()
	for method, count := range want.Results {
		if got.Results[method] != count {
			t.Errorf("table %s row %s method %s: %d results, want %d",
				table, got.Label, method, got.Results[method], count)
		}
	}
	for method, stats := range want.Stats {
		if got.Stats[method] != stats {
			t.Errorf("table %s row %s method %s: access stats %+v, want %+v",
				table, got.Label, method, got.Stats[method], stats)
		}
	}
	if got.DocsEvaluated != want.DocsEvaluated || got.BlocksSkipped != want.BlocksSkipped {
		t.Errorf("table %s row %s: TopKTermJoin evaluated %d documents and skipped %d blocks, want %d and %d",
			table, got.Label, got.DocsEvaluated, got.BlocksSkipped, want.DocsEvaluated, want.BlocksSkipped)
	}
	if !slices.Equal(got.Ranked, want.Ranked) {
		t.Errorf("table %s row %s: results %v, want %v", table, got.Label, got.Ranked, want.Ranked)
	}
	if got.Allocs == nil {
		return // race build: not measured
	}
	for method, ceiling := range want.Allocs {
		if got.Allocs[method] > ceiling {
			t.Errorf("table %s row %s method %s: %.0f allocs/op, ceiling %.0f",
				table, got.Label, method, got.Allocs[method], ceiling)
		}
	}
}

func TestGoldenTables(t *testing.T) {
	if testing.Short() {
		t.Skip("golden tables build the full test corpus")
	}
	if *update && raceEnabled {
		t.Fatal("-update records allocation ceilings; run it without -race")
	}
	c, err := Build(goldenConfig())
	if err != nil {
		t.Fatal(err)
	}
	got := snapshotTables(t, c)
	checkShapes(t, got)

	path := filepath.Join("testdata", "golden.json")
	if *update {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("regenerated %s", path)
		return
	}

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to generate)", err)
	}
	var want []goldenTable
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("%d tables, golden has %d (run with -update after an intentional change)", len(got), len(want))
	}
	for i, wt := range want {
		gt := got[i]
		if gt.ID != wt.ID {
			t.Errorf("table %d id = %q, want %q", i, gt.ID, wt.ID)
			continue
		}
		if len(gt.Rows) != len(wt.Rows) {
			t.Errorf("table %s: %d rows, want %d", gt.ID, len(gt.Rows), len(wt.Rows))
			continue
		}
		for j, wr := range wt.Rows {
			gr := gt.Rows[j]
			if gr.Label != wr.Label {
				t.Errorf("table %s row %d label = %q, want %q", gt.ID, j, gr.Label, wr.Label)
				continue
			}
			compareRow(t, gt.ID, gr, wr)
		}
	}
}

// TestCorpusSnapshotDeterminism pins that two corpus builds from one
// Config produce byte-identical database snapshots: generation, loading,
// and index construction have no hidden nondeterminism (map iteration,
// time, pointers) leaking into the persisted form.
func TestCorpusSnapshotDeterminism(t *testing.T) {
	cfg := SmallConfig()
	cfg.Articles = 40
	var snaps [2]bytes.Buffer
	for i := range snaps {
		c, err := Build(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Snapshot(&snaps[i]); err != nil {
			t.Fatal(err)
		}
	}
	if snaps[0].Len() == 0 {
		t.Fatal("empty snapshot")
	}
	if !bytes.Equal(snaps[0].Bytes(), snaps[1].Bytes()) {
		t.Fatalf("two builds at seed %d differ: %d vs %d bytes (first divergence at %d)",
			cfg.Seed, snaps[0].Len(), snaps[1].Len(), firstDiff(snaps[0].Bytes(), snaps[1].Bytes()))
	}
}

func firstDiff(a, b []byte) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return n
}

// TestShardTableConsistency checks the sharded experiment's invariant
// directly: every shard-count column reports the same result count (the
// differential suite proves element identity; this pins it at bench
// scale, split corpus included).
func TestShardTableConsistency(t *testing.T) {
	cfg := SmallConfig()
	cfg.Runs = 1
	c, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tab, err := c.ShardTable([]int{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tab.Rows {
		if len(row.Cells) != 3 {
			t.Fatalf("row %s: %d cells", row.Label, len(row.Cells))
		}
		for _, cell := range row.Cells {
			if cell.Err != nil {
				t.Fatalf("row %s %s: %v", row.Label, cell.Method, cell.Err)
			}
			if cell.M.Results != row.Cells[0].M.Results {
				t.Errorf("row %s: %s found %d results, %s found %d — sharded counts diverge",
					row.Label, cell.Method, cell.M.Results, row.Cells[0].Method, row.Cells[0].M.Results)
			}
		}
		if row.Cells[0].M.Results == 0 {
			t.Errorf("row %s: no results", row.Label)
		}
	}
}
