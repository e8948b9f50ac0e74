package xq

import (
	"math"
	"strings"
	"testing"

	"repro/internal/fixture"
	"repro/internal/index"
	"repro/internal/storage"
	"repro/internal/tokenize"
)

func newEngine(t testing.TB) *Engine {
	t.Helper()
	return &Engine{Index: fixtureIndex()}
}

// fixtureIndex indexes the paper's Fig. 1 documents, articles.xml and
// reviews.xml.
func fixtureIndex() *index.Index {
	s := storage.NewStore()
	for _, d := range []struct{ name, src string }{
		{"articles.xml", fixture.ArticlesXML},
		{"reviews.xml", fixture.ReviewsXML},
	} {
		if _, err := s.AddTree(d.name, mustParse(d.src)); err != nil {
			panic(err)
		}
	}
	return index.Build(s, tokenize.NewStemming())
}

func approx(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestEvalQuery2EndToEnd(t *testing.T) {
	e := newEngine(t)
	results, err := e.EvalString(query2Src)
	if err != nil {
		t.Fatalf("Eval: %v", err)
	}
	// After Score + Pick, only the chapter (5.0) survives the > 4
	// threshold: the picked set is {chapter 5.0, section-title 0.8, p 0.8,
	// p 1.4, p 1.4}.
	if len(results) != 1 {
		t.Fatalf("results = %d, want 1: %+v", len(results), results)
	}
	top := results[0]
	if top.Node == nil || top.Node.Tag != "chapter" {
		t.Fatalf("top = %v, want the Search-and-Retrieval chapter", top.Node)
	}
	if !approx(top.Score, 5.0) {
		t.Errorf("top score = %v, want 5.0", top.Score)
	}
	if top.Node.FirstTag("section-title") == nil {
		t.Errorf("materialized chapter lost its content")
	}
}

func TestEvalQuery1EndToEnd(t *testing.T) {
	e := newEngine(t)
	results, err := e.EvalString(query1Src)
	if err != nil {
		t.Fatalf("Eval: %v", err)
	}
	// Query 1 lacks the author predicate but matches the same article; the
	// result is identical to Query 2's.
	if len(results) != 1 || results[0].Node.Tag != "chapter" {
		t.Fatalf("results = %+v", results)
	}
}

func TestEvalScoreWithoutPick(t *testing.T) {
	e := newEngine(t)
	results, err := e.EvalString(`
		For $a in document("articles.xml")//article/descendant-or-self::*
		Score $a using ScoreFoo($a, {"search engine"}, {"internet", "information retrieval"})
		Sortby(score)
	`)
	if err != nil {
		t.Fatal(err)
	}
	// Eleven elements carry non-zero scores (Fig. 6's node set minus
	// sname), topped by the article at 5.6 and the chapter at 5.0.
	if len(results) != 11 {
		t.Fatalf("results = %d, want 11", len(results))
	}
	if results[0].Node.Tag != "article" || !approx(results[0].Score, 5.6) {
		t.Errorf("first = %s[%v]", results[0].Node.Tag, results[0].Score)
	}
	if results[1].Node.Tag != "chapter" || !approx(results[1].Score, 5.0) {
		t.Errorf("second = %s[%v]", results[1].Node.Tag, results[1].Score)
	}
}

func TestEvalStopAfterWithoutMin(t *testing.T) {
	e := newEngine(t)
	results, err := e.EvalString(`
		For $a in document("articles.xml")//article/descendant-or-self::*
		Score $a using ScoreFoo($a, {"search engine"}, {})
		Sortby(score)
		Threshold $a/@score stop after 3
	`)
	if err == nil {
		// Threshold without > V but with stop-after parses and keeps 3.
		if len(results) != 3 {
			t.Fatalf("results = %d, want 3", len(results))
		}
		for i := 1; i < len(results); i++ {
			if results[i].Score > results[i-1].Score {
				t.Errorf("not sorted at %d", i)
			}
		}
	} else {
		t.Fatalf("Eval: %v", err)
	}
}

func TestEvalStructuralOnly(t *testing.T) {
	e := newEngine(t)
	results, err := e.EvalString(`For $c in document("articles.xml")//chapter`)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 3 {
		t.Fatalf("chapters = %d, want 3", len(results))
	}
	for _, r := range results {
		if r.Node.Tag != "chapter" || r.Score != 0 {
			t.Errorf("bad structural result %+v", r)
		}
	}
}

func TestEvalChildStepAndPredicates(t *testing.T) {
	e := newEngine(t)
	// Child step.
	results, err := e.EvalString(`For $t in document("articles.xml")//author/sname`)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 1 || results[0].Node.AllText() != "Doe" {
		t.Fatalf("sname results = %+v", results)
	}
	// Attribute predicate.
	results, err = e.EvalString(`For $r in document("reviews.xml")//review[@id="2"]`)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 1 {
		t.Fatalf("review[@id=2] = %d results", len(results))
	}
	if title := results[0].Node.FirstTag("title"); title == nil || title.AllText() != "WWW Technologies" {
		t.Errorf("wrong review: %v", results[0].Node)
	}
	// Existence predicate.
	results, err = e.EvalString(`For $r in document("reviews.xml")//review[rating]`)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 {
		t.Errorf("review[rating] = %d, want 2", len(results))
	}
	// Failing value predicate.
	results, err = e.EvalString(`For $a in document("articles.xml")//article[/author/sname/text()="Smith"]`)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 0 {
		t.Errorf("Smith predicate should match nothing, got %d", len(results))
	}
}

func TestEvalWildcardSteps(t *testing.T) {
	e := newEngine(t)
	results, err := e.EvalString(`For $x in document("articles.xml")//section/*`)
	if err != nil {
		t.Fatal(err)
	}
	// Children of the three sections: 3 section-titles + 3 paragraphs.
	if len(results) != 6 {
		t.Errorf("section children = %d, want 6", len(results))
	}
}

// evalErrorCases are single-For queries Eval must reject: a missing
// document, a non-final descendant-or-self::*, a Score clause on a variable
// the For does not bind, and text that does not parse.
var evalErrorCases = []string{
	`For $a in document("missing.xml")//x`,
	`For $a in document("articles.xml")/descendant-or-self::*/p`,
	`For $a in document("articles.xml")//article Score $b using ScoreFoo($b, {"x"}, {})`,
	`not a query`,
}

func TestEvalErrors(t *testing.T) {
	e := newEngine(t)
	for _, src := range evalErrorCases {
		if _, err := e.EvalString(src); err == nil {
			t.Errorf("%s: expected an error", src)
		}
	}
}

func TestEvalScoreAnchorsDirectly(t *testing.T) {
	e := newEngine(t)
	// No descendant-or-self: each chapter scored on its own subtree.
	results, err := e.EvalString(`
		For $c in document("articles.xml")//chapter
		Score $c using ScoreFoo($c, {"search engine"}, {"internet", "information retrieval"})
		Sortby(score)
	`)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 3 {
		t.Fatalf("results = %d, want 3", len(results))
	}
	if !approx(results[0].Score, 5.0) {
		t.Errorf("best chapter score = %v, want 5.0", results[0].Score)
	}
	if !approx(results[1].Score, 0) || !approx(results[2].Score, 0) {
		t.Errorf("other chapters should score 0: %v, %v", results[1].Score, results[2].Score)
	}
}

func TestEvalDeclarativeWeights(t *testing.T) {
	e := newEngine(t)
	// Doubling the primary weight doubles the primary contribution: the
	// first paragraph (one "search engine" occurrence) scores 1.6.
	results, err := e.EvalString(`
		For $a in document("articles.xml")//article/descendant-or-self::*
		Score $a using ScoreFoo($a, {"search engine"} weight 1.6, {})
		Sortby(score)
	`)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, r := range results {
		if r.Node.Tag == "p" && approx(r.Score, 1.6) {
			found = true
		}
		if r.Node.Tag == "p" && approx(r.Score, 0.8) {
			t.Errorf("default weight used despite override")
		}
	}
	if !found {
		t.Errorf("weighted paragraph score missing: %+v", results)
	}
	// Zero secondary weight silences secondary phrases entirely.
	results, err = e.EvalString(`
		For $a in document("articles.xml")//article/descendant-or-self::*
		Score $a using ScoreFoo($a, {"search engine"}, {"internet", "information retrieval"} weight 0)
		Sortby(score)
	`)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range results {
		// Elements whose only matches are secondary phrases (the
		// article-title's "internet") surface with score 0, never positive.
		if r.Node.Tag == "article-title" && r.Score != 0 {
			t.Errorf("zero-weighted secondary still contributed: %+v", r)
		}
	}
}

func TestEvalUnknownPhrase(t *testing.T) {
	e := newEngine(t)
	results, err := e.EvalString(`
		For $a in document("articles.xml")//article/descendant-or-self::*
		Score $a using ScoreFoo($a, {"quantum chromodynamics"}, {})
	`)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 0 {
		t.Errorf("unknown phrase produced %d results", len(results))
	}
}

// TestFilterLeavesTheTagExtentIntact filters the review extent down to its
// second review, then scans the extent again: the predicate step must
// write its survivors to a new slice, never into the document's own
// extent.
func TestFilterLeavesTheTagExtentIntact(t *testing.T) {
	e := newEngine(t)
	const all = `For $r in document("reviews.xml")//review`
	want, err := e.EvalString(all)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.EvalString(all + `[@id="2"]`); err != nil {
		t.Fatal(err)
	}
	got, err := e.EvalString(all)
	if err != nil {
		t.Fatal(err)
	}
	if g, w := strings.Join(resultKeys(got), " "), strings.Join(resultKeys(want), " "); g != w {
		t.Errorf("reviews after a filtered scan %s, before %s", g, w)
	}
}
