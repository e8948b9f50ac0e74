package exec

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/index"
	"repro/internal/scoring"
	"repro/internal/storage"
	"repro/internal/synth"
	"repro/internal/tokenize"
	"repro/internal/xmltree"
)

// multiDocRoots generates several documents with planted control terms, so
// top-k pruning has whole documents to skip.
func multiDocRoots(t testing.TB, docs int) []*xmltree.Node {
	t.Helper()
	var roots []*xmltree.Node
	for i := 0; i < docs; i++ {
		cfg := synth.DefaultConfig()
		cfg.Articles = 6
		cfg.Seed = int64(100 + i)
		cfg.ControlTerms = map[string]int{"ctla": 30, "ctlb": 20}
		c, err := synth.Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		roots = append(roots, c.Root)
	}
	return roots
}

// buildMultiDocIndex is the flat index over multiDocRoots(docs).
func buildMultiDocIndex(t testing.TB, docs int) *index.Index {
	return flatIndex(t, multiDocRoots(t, docs))
}

// addDocs appends roots to s as doc00.xml, doc01.xml, … from number from.
func addDocs(t testing.TB, s *storage.Store, from int, roots []*xmltree.Node) []storage.DocID {
	t.Helper()
	ids := make([]storage.DocID, len(roots))
	for i, root := range roots {
		id, err := s.AddTree(fmt.Sprintf("doc%02d.xml", from+i), root)
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = id
	}
	return ids
}

// flatIndex builds the static index — one flat block list per term — over
// roots.
func flatIndex(t testing.TB, roots []*xmltree.Node) *index.Index {
	s := storage.NewStore()
	addDocs(t, s, 0, roots)
	return index.Build(s, tokenize.New())
}

// liveIndex serves the same documents as flatIndex(roots), under the same
// ids, from a live snapshot: roots[:base] from the base segment, the rest
// from the active memtable, plus one more document that repeats every
// term of terms forty times — enough to top any ranking — and is deleted.
// Every non-empty list is then a merged view with a tombstone.
func liveIndex(t testing.TB, roots []*xmltree.Node, base int, terms []string) *index.Index {
	t.Helper()
	s := storage.NewStore()
	addDocs(t, s, 0, roots[:base])
	live, err := index.NewLive(s, tokenize.New(), index.LiveConfig{ManualCompact: true})
	if err != nil {
		t.Fatal(err)
	}
	dead := mustParse(`<a><p>` + strings.Repeat(strings.Join(terms, " ")+" ", 40) + `</p></a>`)
	ids := addDocs(t, s, base, append(roots[base:len(roots):len(roots)], dead))
	for _, id := range ids {
		if err := live.IndexDoc(s.Doc(id)); err != nil {
			t.Fatal(err)
		}
	}
	live.Delete(ids[len(ids)-1])
	return live.Snapshot()
}

// fullTopK is the exhaustive oracle: the whole TermJoin through a TopK.
func fullTopK(t *testing.T, idx *index.Index, q TermQuery, k int) []ScoredNode {
	t.Helper()
	full, err := RunTermJoin(idx, q, ChildCountNavigate)
	if err != nil {
		t.Fatal(err)
	}
	tk := NewTopK(k)
	for _, n := range full {
		tk.Offer(n)
	}
	return tk.Results()
}

// TestTopKTermJoinMatchesFullRun pins the pruned sweep to the exhaustive
// oracle element for element, ties at the k-th score included (unit
// weights make integer scores, so most cut-offs fall inside a tie), on
// flat block lists and on the same documents served from a memtable plus
// a tombstone.
func TestTopKTermJoinMatchesFullRun(t *testing.T) {
	roots := multiDocRoots(t, 8)
	terms := []string{"ctla", "ctlb"}
	flat := flatIndex(t, roots)
	shapes := []struct {
		name string
		idx  *index.Index
	}{{"flat", flat}, {"live", liveIndex(t, roots, 4, terms)}}
	weights := map[string][]float64{"unit": nil, "skewed": {0.8, 0.6}, "zero": {0, 1}}
	for _, complex := range []bool{false, true} {
		for wname, w := range weights {
			q := TermQuery{
				Terms:   terms,
				Complex: complex,
				Scorer:  DefaultScorer{SimpleFn: scoring.SimpleScorer{Weights: w}, ComplexFn: scoring.ComplexScorer{Weights: w}},
			}
			for _, k := range []int{1, 3, 10, 37, 100, 1000} {
				want := fullTopK(t, flat, q, k)
				for _, shape := range shapes {
					tkj := &TopKTermJoin{Index: shape.idx, Query: q, K: k}
					got, err := tkj.Run()
					if err != nil {
						t.Fatal(err)
					}
					label := fmt.Sprintf("complex=%v weights=%s k=%d %s", complex, wname, k, shape.name)
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("%s: pruned top-k differs from the exhaustive oracle\n got %v\nwant %v", label, got, want)
					}
				}
			}
		}
	}
}

// TestTopKTermJoinPlantedCases plants the two inputs the pruned paths
// used to get wrong, and holds the sweep to the exhaustive oracle on flat
// lists and on a live snapshot of the same documents.
func TestTopKTermJoinPlantedCases(t *testing.T) {
	cases := []struct {
		name  string
		docs  []string
		query TermQuery
		k     int
		// at and doc name the oracle result the case exists for.
		at  int
		doc storage.DocID
	}{{
		// Doc 1 has the higher bound and fills the heap down to a score-2
		// element; doc 0's bound equals that cut-off, and its root — score 2
		// from a lower document id — must displace it.
		name:  "tie-from-lower-doc",
		docs:  []string{`<a><p>x x</p></a>`, `<a><p>x x x</p><q>x x</q><r>x x</r></a>`},
		query: TermQuery{Terms: []string{"x"}, Scorer: DefaultScorer{}},
		k:     3, at: 2, doc: 0,
	}, {
		// A repeated term puts a pair of occurrences at distance 0, adding a
		// full 1 to the complex score: doc 1's root scores 6.5, above a bound
		// charging 1/2 per pair (5.5) that doc 0's root (≈6.03) would prune.
		name:  "repeated-term",
		docs:  []string{`<a><p>x</p><q>x</q></a>`, `<a><p>x x</p></a>`},
		query: TermQuery{Terms: []string{"x", "x"}, Complex: true, Scorer: DefaultScorer{}},
		k:     1, at: 0, doc: 1,
	}}
	for _, tc := range cases {
		var roots []*xmltree.Node
		for _, src := range tc.docs {
			roots = append(roots, mustParse(src))
		}
		flat := flatIndex(t, roots)
		want := fullTopK(t, flat, tc.query, tc.k)
		if want[tc.at].Doc != tc.doc {
			t.Fatalf("%s: oracle result %d is %+v: the planted case is gone", tc.name, tc.at, want[tc.at])
		}
		for shape, idx := range []*index.Index{flat, liveIndex(t, roots, 1, tc.query.Terms)} {
			tkj := &TopKTermJoin{Index: idx, Query: tc.query, K: tc.k}
			got, err := tkj.Run()
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s live=%v: got %v, want %v", tc.name, shape == 1, got, want)
			}
		}
	}
}

// TestTopKTermJoinPrunesLiveSnapshot: a live snapshot's merged lists run
// the block-max sweep too — at k=1 it skips blocks and scores fewer
// documents than carry the terms — and the deleted document is never
// scored, even with pruning off.
func TestTopKTermJoinPrunesLiveSnapshot(t *testing.T) {
	terms := []string{"ctla", "ctlb"}
	idx := liveIndex(t, multiDocRoots(t, 12), 8, terms)
	tkj := &TopKTermJoin{Index: idx, Query: TermQuery{Terms: terms, Scorer: DefaultScorer{}}, K: 1}
	if _, err := tkj.Run(); err != nil {
		t.Fatal(err)
	}
	unpruned := &TopKTermJoin{Index: idx, Query: tkj.Query, K: 1, DisablePruning: true}
	if _, err := unpruned.Run(); err != nil {
		t.Fatal(err)
	}
	candidates := map[storage.DocID]bool{}
	for _, term := range terms {
		idx.List(term).Each(func(p index.Posting) bool {
			candidates[p.Doc] = true
			return true
		})
	}
	if tkj.BlocksSkipped == 0 {
		t.Error("block-max sweep skipped no block of the live snapshot at k=1")
	}
	if tkj.DocsEvaluated >= len(candidates) {
		t.Errorf("DocsEvaluated = %d, want below the %d candidate documents", tkj.DocsEvaluated, len(candidates))
	}
	if unpruned.DocsEvaluated != len(candidates) {
		t.Errorf("unpruned DocsEvaluated = %d, want exactly the %d live candidate documents", unpruned.DocsEvaluated, len(candidates))
	}
}

// TestTopKTermJoinGuardedAccessor checks the pruned path's store traffic
// is both visible (AccessStats) and metered (MaxAccesses trips).
func TestTopKTermJoinGuardedAccessor(t *testing.T) {
	idx := buildMultiDocIndex(t, 8)
	q := TermQuery{Terms: []string{"ctla", "ctlb"}, Scorer: DefaultScorer{}}
	tkj := &TopKTermJoin{Index: idx, Query: q, K: 1, Guard: NewGuard(context.Background(), Limits{})}
	if _, err := tkj.Run(); err != nil {
		t.Fatal(err)
	}
	reads := tkj.AccessStats().NodeReads
	full := &TermJoin{Index: idx, Acc: storage.NewAccessor(idx.Store()), Query: q}
	if _, err := Collect(full.Run); err != nil {
		t.Fatal(err)
	}
	if reads == 0 || reads >= full.AccessStats().NodeReads {
		t.Fatalf("pruned node reads = %d, want in (0, %d)", reads, full.AccessStats().NodeReads)
	}

	tkj = &TopKTermJoin{Index: idx, Query: q, K: 1,
		Guard: NewGuard(context.Background(), Limits{MaxAccesses: reads / 2, CheckEvery: 1})}
	_, err := tkj.Run()
	var le *LimitError
	if !errors.As(err, &le) || le.Resource != "store accesses" {
		t.Fatalf("err = %v, want a store-accesses LimitError", err)
	}
}

func TestTopKTermJoinEarlyTermination(t *testing.T) {
	idx := buildMultiDocIndex(t, 8)
	q := TermQuery{Terms: []string{"ctla", "ctlb"}, Scorer: DefaultScorer{}}
	tkj := &TopKTermJoin{Index: idx, Query: q, K: 1}
	if _, err := tkj.Run(); err != nil {
		t.Fatal(err)
	}
	// All 8 documents carry the terms; k=1 should stop after the documents
	// whose bound exceeds the best score — the per-document bounds equal
	// the whole-document counts, and the best element (each document root)
	// attains its bound, so exactly one document is evaluated.
	if tkj.DocsEvaluated != 1 {
		t.Errorf("DocsEvaluated = %d, want 1", tkj.DocsEvaluated)
	}
	// A huge k evaluates everything.
	tkj = &TopKTermJoin{Index: idx, Query: q, K: 100000}
	if _, err := tkj.Run(); err != nil {
		t.Fatal(err)
	}
	if tkj.DocsEvaluated != 8 {
		t.Errorf("DocsEvaluated = %d, want 8", tkj.DocsEvaluated)
	}
}

func TestTopKTermJoinEdgeCases(t *testing.T) {
	idx := buildMultiDocIndex(t, 2)
	if got, err := (&TopKTermJoin{Index: idx, Query: TermQuery{Terms: []string{"x"}, Scorer: DefaultScorer{}}, K: 0}).Run(); err != nil || got != nil {
		t.Errorf("k=0: %v, %v", got, err)
	}
	if _, err := (&TopKTermJoin{Index: idx, Query: TermQuery{Scorer: DefaultScorer{}}, K: 1}).Run(); err == nil {
		t.Errorf("no terms should error")
	}
	if _, err := (&TopKTermJoin{Index: idx, Query: TermQuery{Terms: []string{"x"}}, K: 1}).Run(); err == nil {
		t.Errorf("no scorer should error")
	}
	// Unknown term: empty result.
	got, err := (&TopKTermJoin{Index: idx, Query: TermQuery{Terms: []string{"zzz"}, Scorer: DefaultScorer{}}, K: 5}).Run()
	if err != nil || len(got) != 0 {
		t.Errorf("unknown term: %v, %v", got, err)
	}
}
