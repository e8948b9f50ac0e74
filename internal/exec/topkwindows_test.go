package exec

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/index"
	"repro/internal/postings"
	"repro/internal/storage"
	"repro/internal/tokenize"
	"repro/internal/xmltree"
)

// countsDoc is a document holding x cx times and y cy times, split over
// two paragraphs so that complex scoring has structure to weigh.
func countsDoc(cx, cy int) *xmltree.Node {
	half := func(w string, n int) string { return strings.Repeat(w+" ", n) }
	return mustParse("<a><p>" + half("x", cx/2) + half("y", cy-cy/2) + "f</p><q>" +
		half("y", cy/2) + half("x", cx-cx/2) + "f</q></a>")
}

// checkGroupWindows holds the pruned run on idx to the unpruned oracle
// and to the exhaustive TermJoin through a TopK, for k in {1, 10, 100}
// under simple and complex scoring, and returns the pruned runs.
func checkGroupWindows(t *testing.T, name string, idx *index.Index, terms []string) []*TopKTermJoin {
	t.Helper()
	var runs []*TopKTermJoin
	for _, complex := range []bool{false, true} {
		q := TermQuery{Terms: terms, Complex: complex, Scorer: DefaultScorer{}}
		for _, k := range []int{1, 10, 100} {
			want := fullTopK(t, idx, q, k)
			pruned := &TopKTermJoin{Index: idx, Query: q, K: k}
			for _, tk := range []*TopKTermJoin{pruned, unprunedTopK(idx, q, k)} {
				got, err := tk.Run()
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s complex=%v k=%d pruned=%v:\n got %v\nwant %v", name, complex, k, !tk.disablePruning, got, want)
				}
			}
			runs = append(runs, pruned)
		}
	}
	return runs
}

// TestTopKGroupWindowsLive: opened groups whose windows hold memtable runs
// (several sealed memtables beside the base segment) and tombstoned
// documents. The deleted heavy documents carry the most occurrences, so
// the bounds of the memtable runs holding them open those groups first.
func TestTopKGroupWindowsLive(t *testing.T) {
	s := storage.NewStore()
	var roots []*xmltree.Node
	for d := 0; d < 60; d++ {
		roots = append(roots, countsDoc(1+d*7%9, d*5%7))
	}
	addDocs(t, s, 0, roots[:30])
	live, err := index.NewLive(s, tokenize.New(), index.LiveConfig{SealPostings: 40, ManualCompact: true})
	if err != nil {
		t.Fatal(err)
	}
	ids := addDocs(t, s, 30, roots[30:])
	for _, id := range ids {
		if err := live.IndexDoc(s.Doc(id)); err != nil {
			t.Fatal(err)
		}
	}
	// Three heavy documents, which land in the memtables, are deleted, and
	// so are three ordinary ones: two in the base segment, one in a
	// memtable.
	heavy := addDocs(t, s, 60, []*xmltree.Node{countsDoc(30, 30), countsDoc(25, 0), countsDoc(0, 28)})
	for _, id := range heavy {
		if err := live.IndexDoc(s.Doc(id)); err != nil {
			t.Fatal(err)
		}
	}
	for _, id := range append(heavy, 3, 17, 44) {
		live.Delete(id)
	}
	idx := live.Snapshot()
	// Each memtable run is one pseudo-block of the block-max view.
	blocks, base := 0, flatIndex(t, roots[:30]).List("x").Blocks().NumBlocks()
	for bm := idx.List("x").BlockMax(); bm.Valid(); bm.Next() {
		blocks++
	}
	if blocks < base+3 {
		t.Fatalf("x has %d blocks beside the base segment's %d, want three memtable runs or more", blocks, base)
	}
	for _, run := range checkGroupWindows(t, "live", idx, []string{"x", "y"}) {
		if run.DocsEvaluated == 0 {
			t.Fatalf("k=%d complex=%v scored no document", run.K, run.Query.Complex)
		}
	}
}

// TestTopKGroupWindowsResident: windows of resident lists, which copy the
// resident postings instead of decoding blocks.
func TestTopKGroupWindowsResident(t *testing.T) {
	var roots []*xmltree.Node
	for d := 0; d < 1500; d++ {
		roots = append(roots, countsDoc(2+d%5, d%3))
	}
	idx := flatIndex(t, roots)
	if bl := idx.List("x").Blocks(); !bl.HasResident() {
		t.Fatal("the list of x did not adopt the resident form")
	}
	checkGroupWindows(t, "resident", idx, []string{"x", "y"})
}

// TestTopKGroupWindowsSpanningDocument: documents whose postings span two
// blocks of one list, so a group's window starts or ends inside a block.
func TestTopKGroupWindowsSpanningDocument(t *testing.T) {
	var roots []*xmltree.Node
	for d := 0; d < 12; d++ {
		roots = append(roots, countsDoc(50+d%4, 3+d%2))
	}
	idx := flatIndex(t, roots)
	skips := idx.List("x").Blocks().Skips()
	spans := 0
	for i := 1; i < len(skips); i++ {
		if skips[i].FirstDoc == skips[i-1].LastDoc {
			spans++
		}
	}
	if spans == 0 {
		t.Fatal("no document of x spans two blocks")
	}
	checkGroupWindows(t, "spanning", idx, []string{"x", "y"})
}

// TestTopKGroupWindowsInterleaved: groups scored interleaved, so a group's
// later documents are scored over its window while the arena holds the
// windows of groups scored since. Under simple scoring a document's root
// scores exactly its bound, so documents are scored in result order; the
// counts put the best documents in turn in different block-max intervals,
// which the check below confirms from the results.
func TestTopKGroupWindowsInterleaved(t *testing.T) {
	var roots []*xmltree.Node
	for d := 0; d < 48; d++ {
		roots = append(roots, countsDoc(2+d*5%13, 0))
	}
	idx := flatIndex(t, roots)
	// The block-max interval of each document: the last block edge at or
	// before it.
	var edges []storage.DocID
	for bm := idx.List("x").BlockMax(); bm.Valid(); bm.Next() {
		edges = append(edges, bm.Block().FirstDoc, bm.Block().LastDoc+1)
	}
	interval := func(doc storage.DocID) storage.DocID {
		at := storage.DocID(-1)
		for _, e := range edges {
			if e <= doc {
				at = max(at, e)
			}
		}
		return at
	}
	runs := checkGroupWindows(t, "interleaved", idx, []string{"x"})
	res, err := runs[1].Run() // simple, k = 10
	if err != nil {
		t.Fatal(err)
	}
	var order []storage.DocID // the intervals of the results' documents, in result order
	for i, r := range res {
		if i == 0 || r.Doc != res[i-1].Doc {
			order = append(order, interval(r.Doc))
		}
	}
	seen, back := map[storage.DocID]bool{}, false
	for i, iv := range order {
		back = back || seen[iv] && order[i-1] != iv
		seen[iv] = true
	}
	if len(edges) < 4 || !back {
		t.Fatalf("results' intervals %v never return to an earlier one: the groups were not interleaved", order)
	}
	if n := postings.BlockSize; idx.List("x").Len() < 2*n {
		t.Fatalf("x has %d postings, want at least two blocks of %d", idx.List("x").Len(), n)
	}
}
