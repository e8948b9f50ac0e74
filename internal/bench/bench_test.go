package bench

import (
	"strings"
	"testing"

	"repro/internal/storage"
)

// smallCorpus caches the test corpus across tests.
var smallCorpus *Corpus

func corpus(t testing.TB) *Corpus {
	t.Helper()
	if smallCorpus == nil {
		c, err := Build(SmallConfig())
		if err != nil {
			t.Fatal(err)
		}
		smallCorpus = c
	}
	return smallCorpus
}

func TestBuildPlantsWorkloads(t *testing.T) {
	c := corpus(t)
	for _, f := range c.freqs() {
		a, b, err := c.PairTerms(f)
		if err != nil {
			t.Fatal(err)
		}
		if got := c.Index.TermFreq(a); got != f {
			t.Errorf("freq(%s) = %d, want %d", a, got, f)
		}
		if got := c.Index.TermFreq(b); got != f {
			t.Errorf("freq(%s) = %d, want %d", b, got, f)
		}
	}
	terms, err := c.Table4Terms(c.t4terms())
	if err != nil {
		t.Fatal(err)
	}
	for _, term := range terms {
		if got := c.Index.TermFreq(term); got != Table4Freq {
			t.Errorf("freq(%s) = %d, want %d", term, got, Table4Freq)
		}
	}
	if _, _, err := c.PairTerms(999999); err == nil {
		t.Errorf("unknown frequency should error")
	}
	if _, err := c.Table4Terms(100); err == nil {
		t.Errorf("too many table-4 terms should error")
	}
}

func TestTable5PhrasesPlanted(t *testing.T) {
	c := corpus(t)
	div := c.t5divisor()
	for _, row := range Table5Rows {
		t1, t2, f1, f2, err := c.Table5Phrase(row)
		if err != nil {
			t.Fatal(err)
		}
		// Planted frequency is the scaled paper frequency, raised when the
		// planted phrase count needs more.
		if got := c.Index.TermFreq(t1); got < f1 {
			t.Errorf("freq(%s) = %d, want >= %d", t1, got, f1)
		}
		if got := c.Index.TermFreq(t2); got < f2 {
			t.Errorf("freq(%s) = %d, want >= %d", t2, got, f2)
		}
		_ = div
	}
}

func TestRunTermMethodsAgree(t *testing.T) {
	c := corpus(t)
	a, b, err := c.PairTerms(100)
	if err != nil {
		t.Fatal(err)
	}
	old := Runs
	Runs = 1
	defer func() { Runs = old }()
	var counts []int
	for _, m := range []Method{MComp1, MComp2, MGenMeet, MTermJoin} {
		meas, err := c.RunTermMethod(m, []string{a, b}, false)
		if err != nil {
			t.Fatal(err)
		}
		if meas.Results == 0 {
			t.Fatalf("%s produced no results", m)
		}
		counts = append(counts, meas.Results)
	}
	for i := 1; i < len(counts); i++ {
		if counts[i] != counts[0] {
			t.Errorf("method result counts differ: %v", counts)
		}
	}
	if _, err := c.RunTermMethod("bogus", []string{a}, false); err == nil {
		t.Errorf("unknown method should error")
	}
}

// TestShardTermStats pins what the shards table reports for the facade's
// exhaustive term search: 702 results and the access stats the facade's
// tix_access_*_total{op="terms"} counters gained, the same at every shard
// count because each shard reads only its own documents.
func TestShardTermStats(t *testing.T) {
	c := corpus(t)
	a, b, err := c.PairTerms(100)
	if err != nil {
		t.Fatal(err)
	}
	want := map[bool]storage.AccessStats{
		false: {NodeReads: 902, PageReads: 168},
		true:  {NodeReads: 3928, PageReads: 507, NavSteps: 2324},
	}
	for _, n := range []int{1, 2, 4} {
		s, err := c.ShardDB(n, 8)
		if err != nil {
			t.Fatal(err)
		}
		for _, complex := range []bool{false, true} {
			m, err := c.RunShardTermMethod(s, []string{a, b}, complex)
			if err != nil {
				t.Fatal(err)
			}
			got, w := m.Stats, want[complex]
			if m.Results != 702 || got.NodeReads != w.NodeReads || got.PageReads != w.PageReads ||
				got.TextReads != w.TextReads || got.NavSteps != w.NavSteps {
				t.Errorf("shards=%d complex=%v: %d results, %s; want 702 results, %s", n, complex, m.Results, got.String(), w.String())
			}
		}
	}
}

func TestRunPhraseMethodsAgree(t *testing.T) {
	c := corpus(t)
	row := Table5Rows[1] // modest result size
	t1, t2, _, _, err := c.Table5Phrase(row)
	if err != nil {
		t.Fatal(err)
	}
	old := Runs
	Runs = 1
	defer func() { Runs = old }()
	pf, err := c.RunPhraseMethod(MPhraseFinder, []string{t1, t2})
	if err != nil {
		t.Fatal(err)
	}
	c3, err := c.RunPhraseMethod(MComp3, []string{t1, t2})
	if err != nil {
		t.Fatal(err)
	}
	if pf.Results != c3.Results {
		t.Errorf("result sizes differ: %d vs %d", pf.Results, c3.Results)
	}
	if pf.Results == 0 {
		t.Errorf("no phrase matches; planting failed")
	}
	if _, err := c.RunPhraseMethod("bogus", []string{t1}); err == nil {
		t.Errorf("unknown method should error")
	}
}

func TestTablesRender(t *testing.T) {
	c := corpus(t)
	old := Runs
	Runs = 1
	defer func() { Runs = old }()
	t1, err := c.Table1()
	if err != nil {
		t.Fatal(err)
	}
	if len(t1.Rows) != len(c.freqs()) {
		t.Errorf("table1 rows = %d", len(t1.Rows))
	}
	var sb strings.Builder
	if err := t1.Write(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, col := range []string{"Comp1", "Comp2", "GenMeet", "TermJoin"} {
		if !strings.Contains(out, col) {
			t.Errorf("rendered table missing column %s:\n%s", col, out)
		}
	}
	// Ratio helper.
	if ratio, ok := t1.Rows[len(t1.Rows)-1].Ratio(MComp2, MTermJoin); !ok || ratio <= 0 {
		t.Errorf("ratio = %f, %v", ratio, ok)
	}
	if _, ok := t1.Rows[0].Ratio("nope", MTermJoin); ok {
		t.Errorf("unknown method ratio should fail")
	}
}

func TestPickTable(t *testing.T) {
	old := Runs
	Runs = 1
	defer func() { Runs = old }()
	pt, err := PickTable(7, []int{200, 2000})
	if err != nil {
		t.Fatal(err)
	}
	if len(pt.Rows) != 2 {
		t.Fatalf("pick rows = %d", len(pt.Rows))
	}
	var sb strings.Builder
	if err := pt.Write(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "picked=") {
		t.Errorf("pick table missing counts:\n%s", sb.String())
	}
}

func TestAblationsTable(t *testing.T) {
	c := corpus(t)
	old := Runs
	Runs = 1
	defer func() { Runs = old }()
	tbl, err := c.Ablations()
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 2 {
		t.Fatalf("ablation rows = %d", len(tbl.Rows))
	}
	for _, r := range tbl.Rows {
		if len(r.Cells) != 2 {
			t.Fatalf("row %s cells = %d", r.Label, len(r.Cells))
		}
		for _, cell := range r.Cells {
			if cell.Err != nil {
				t.Errorf("row %s: %v", r.Label, cell.Err)
			}
		}
	}
	var sb strings.Builder
	if err := tbl.Write(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "child-count") {
		t.Errorf("rendered ablation table wrong:\n%s", sb.String())
	}
	// CSV rendering works for every table kind.
	sb.Reset()
	if err := tbl.WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "x,Optimized,Ablated,extra") {
		t.Errorf("csv header wrong:\n%s", sb.String())
	}
}

func TestPickInputWellFormed(t *testing.T) {
	nodes := PickInput(5000, 3)
	if len(nodes) != 5000 {
		t.Fatalf("size = %d", len(nodes))
	}
	for i := 1; i < len(nodes); i++ {
		if nodes[i].Start <= nodes[i-1].Start {
			t.Fatalf("not in document order at %d", i)
		}
	}
	// Regions either nest or are disjoint.
	for i := 1; i < 200; i++ {
		a, b := nodes[i-1], nodes[i]
		if b.Start < a.End && b.End > a.End {
			t.Fatalf("overlapping regions: %+v %+v", a, b)
		}
	}
}

// TestShapeHolds is the smoke test for the paper's qualitative claims on
// the small corpus: TermJoin beats Comp1 and Comp2 at the highest swept
// frequency, Comp2 is the most expensive method at low frequency, and
// PhraseFinder beats Comp3.
func TestShapeHolds(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-sensitive")
	}
	c := corpus(t)
	freqs := c.freqs()
	hi := freqs[len(freqs)-1]
	a, b, err := c.PairTerms(hi)
	if err != nil {
		t.Fatal(err)
	}
	tj, err := c.RunTermMethod(MTermJoin, []string{a, b}, false)
	if err != nil {
		t.Fatal(err)
	}
	c1, err := c.RunTermMethod(MComp1, []string{a, b}, false)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := c.RunTermMethod(MComp2, []string{a, b}, false)
	if err != nil {
		t.Fatal(err)
	}
	if tj.Seconds >= c1.Seconds {
		t.Errorf("TermJoin (%.4fs) should beat Comp1 (%.4fs) at freq %d", tj.Seconds, c1.Seconds, hi)
	}
	if tj.Seconds >= c2.Seconds {
		t.Errorf("TermJoin (%.4fs) should beat Comp2 (%.4fs)", tj.Seconds, c2.Seconds)
	}
	row := Table5Rows[0]
	t1, t2, _, _, err := c.Table5Phrase(row)
	if err != nil {
		t.Fatal(err)
	}
	pf, err := c.RunPhraseMethod(MPhraseFinder, []string{t1, t2})
	if err != nil {
		t.Fatal(err)
	}
	c3, err := c.RunPhraseMethod(MComp3, []string{t1, t2})
	if err != nil {
		t.Fatal(err)
	}
	if pf.Seconds >= c3.Seconds {
		t.Errorf("PhraseFinder (%.4fs) should beat Comp3 (%.4fs)", pf.Seconds, c3.Seconds)
	}
}

// TestHotpathTableEndToEnd runs the full rig on a miniature tier: the
// streamed corpus builds, every method measures without error, and the
// per-op measurements carry allocation data.
func TestHotpathTableEndToEnd(t *testing.T) {
	tab, err := HotpathTable(HotpathTierSpec{Name: "test", Docs: 400}, 7)
	if err != nil {
		t.Fatal(err)
	}
	if tab.ID != "hotpath-test" || len(tab.Rows) == 0 {
		t.Fatalf("table = %+v", tab)
	}
	for _, row := range tab.Rows {
		for _, c := range row.Cells {
			if c.Err != nil {
				t.Fatalf("row %s method %s: %v", row.Label, c.Method, c.Err)
			}
			if c.M.Seconds <= 0 {
				t.Errorf("row %s method %s: non-positive seconds", row.Label, c.Method)
			}
			if c.M.Results <= 0 {
				t.Errorf("row %s method %s: no results", row.Label, c.Method)
			}
		}
	}
}
