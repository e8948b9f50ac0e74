package exec

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/index"
	"repro/internal/scoring"
	"repro/internal/storage"
	"repro/internal/synth"
	"repro/internal/tokenize"
)

// buildMultiDocIndex loads several generated documents, so top-k pruning
// has whole documents to skip.
func buildMultiDocIndex(t testing.TB, docs int) *index.Index {
	t.Helper()
	s := storage.NewStore()
	for i := 0; i < docs; i++ {
		cfg := synth.DefaultConfig()
		cfg.Articles = 6
		cfg.Seed = int64(100 + i)
		cfg.ControlTerms = map[string]int{"ctla": 30, "ctlb": 20}
		c, err := synth.Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.AddTree(fmt.Sprintf("doc%02d.xml", i), c.Root); err != nil {
			t.Fatal(err)
		}
	}
	return index.Build(s, tokenize.New())
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

// TestTopKTermJoinMatchesFullRun pins both pruned paths — block-max and
// the document-at-a-time path a custom Bound selects — to the exhaustive
// oracle element for element, ties at the k-th score included: unit
// weights make integer scores, so most cut-offs fall inside a tie.
func TestTopKTermJoinMatchesFullRun(t *testing.T) {
	idx := buildMultiDocIndex(t, 8)
	weights := map[string][]float64{"unit": nil, "skewed": {0.8, 0.6}, "zero": {0, 1}}
	for _, complex := range []bool{false, true} {
		for wname, w := range weights {
			q := TermQuery{
				Terms:   []string{"ctla", "ctlb"},
				Complex: complex,
				Scorer:  DefaultScorer{SimpleFn: scoring.SimpleScorer{Weights: w}, ComplexFn: scoring.ComplexScorer{Weights: w}},
			}
			for _, k := range []int{1, 3, 10, 37, 100, 1000} {
				want := fullTopK(t, idx, q, k)
				for _, docAtATime := range []bool{false, true} {
					tkj := &TopKTermJoin{Index: idx, Query: q, K: k}
					if docAtATime {
						tkj.Bound = tkj.defaultBound
					}
					got, err := tkj.Run()
					if err != nil {
						t.Fatal(err)
					}
					label := fmt.Sprintf("complex=%v weights=%s k=%d docAtATime=%v", complex, wname, k, docAtATime)
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("%s: pruned top-k differs from the exhaustive oracle\n got %v\nwant %v", label, got, want)
					}
				}
			}
		}
	}
}

// TestTopKTermJoinPlantedCases plants the two inputs the pruned paths
// used to get wrong, and holds both paths to the exhaustive oracle.
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
		// Doc 1 is evaluated first (higher bound) and fills the heap down to
		// a score-2 element; doc 0's bound equals that cut-off, and its root
		// — score 2 from a lower document id — must displace it.
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
		s := storage.NewStore()
		for i, src := range tc.docs {
			if _, err := s.AddTree(fmt.Sprintf("d%d.xml", i), mustParse(src)); err != nil {
				t.Fatal(err)
			}
		}
		idx := index.Build(s, tokenize.New())
		want := fullTopK(t, idx, tc.query, tc.k)
		if want[tc.at].Doc != tc.doc {
			t.Fatalf("%s: oracle result %d is %+v: the planted case is gone", tc.name, tc.at, want[tc.at])
		}
		for _, docAtATime := range []bool{false, true} {
			tkj := &TopKTermJoin{Index: idx, Query: tc.query, K: tc.k}
			if docAtATime {
				tkj.Bound = tkj.defaultBound
			}
			got, err := tkj.Run()
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s docAtATime=%v: got %v, want %v", tc.name, docAtATime, got, want)
			}
		}
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

func TestTopKTermJoinCustomBound(t *testing.T) {
	idx := buildMultiDocIndex(t, 4)
	q := TermQuery{Terms: []string{"ctla"}, Scorer: DefaultScorer{}}
	// A deliberately loose custom bound must still give correct results,
	// just without early termination.
	tkj := &TopKTermJoin{
		Index: idx, Query: q, K: 2,
		Bound: func(counts []int, occ int) float64 { return 1e18 },
	}
	got, err := tkj.Run()
	if err != nil {
		t.Fatal(err)
	}
	if tkj.DocsEvaluated != 4 {
		t.Errorf("loose bound should evaluate all docs, got %d", tkj.DocsEvaluated)
	}
	if len(got) != 2 {
		t.Errorf("results = %d", len(got))
	}
}
