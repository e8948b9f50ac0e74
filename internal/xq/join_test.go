package xq

import (
	"testing"
)

// query3Src is the paper's Query 3 in the dialect's join shape: find
// relevant components in articles by "Doe", and for the containing
// articles find reviews with similar titles; scores combine title
// similarity with component relevance through ScoreBar.
const query3Src = `
For $a in document("articles.xml")//article[/author/sname/text()="Doe"]
For $b in document("reviews.xml")//review
Let $sim := ScoreSim($a/article-title, $b/title)
Where $sim > 1
For $d in $a/descendant-or-self::*
Score $d using ScoreFoo($d, {"search engine"}, {"internet", "information retrieval"})
Pick $d using PickFoo($d)
Score $r using ScoreBar($sim, $d)
Return <tix_prod_root><score>$r/@score</score>{ $d }{ $b }</tix_prod_root>
Sortby(score)
`

func TestParseQuery3(t *testing.T) {
	q, err := Parse(query3Src)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if len(q.Fors) != 3 {
		t.Fatalf("Fors = %d", len(q.Fors))
	}
	if q.Fors[1].Path.Document != "reviews.xml" {
		t.Errorf("right doc = %q", q.Fors[1].Path.Document)
	}
	if q.Fors[2].Path.BaseVar != "a" {
		t.Errorf("component base = %q", q.Fors[2].Path.BaseVar)
	}
	if q.Let == nil || q.Let.Var != "sim" || q.Let.LeftKey != "article-title" || q.Let.RightKey != "title" {
		t.Fatalf("let = %+v", q.Let)
	}
	if q.Where == nil || q.Where.Min != 1 {
		t.Fatalf("where = %+v", q.Where)
	}
	if q.Score == nil || q.Score.Var != "d" {
		t.Fatalf("score = %+v", q.Score)
	}
	if q.Pick == nil || q.Pick.Var != "d" {
		t.Fatalf("pick = %+v", q.Pick)
	}
	if q.Combine == nil || q.Combine.Var != "r" || q.Combine.SimVar != "sim" || q.Combine.CompVar != "d" {
		t.Fatalf("combine = %+v", q.Combine)
	}
	// Round trip.
	q2, err := Parse(q.String())
	if err != nil {
		t.Fatalf("reparse %q: %v", q.String(), err)
	}
	if q2.String() != q.String() {
		t.Errorf("round trip unstable:\n%s\nvs\n%s", q.String(), q2.String())
	}
}

func TestEvalQuery3EndToEnd(t *testing.T) {
	e := newEngine(t)
	results, err := e.EvalString(query3Src)
	if err != nil {
		t.Fatalf("Eval: %v", err)
	}
	if len(results) == 0 {
		t.Fatalf("no results")
	}
	// Only review 1 ("Internet Technologies", sim 2) passes Where sim > 1;
	// the picked components are the chapter (5.0), the section-title (0.8)
	// and the three paragraphs (0.8, 1.4, 1.4). Best combined result:
	// chapter with 2 + 5.0 = 7.0.
	best := results[0]
	if best.Node.Tag != "chapter" || !approx(best.Score, 7.0) || !approx(best.Sim, 2) {
		t.Errorf("best = <%s> score %.2f sim %.0f, want chapter 7.0 sim 2", best.Node.Tag, best.Score, best.Sim)
	}
	if best.Right == nil || best.Right.Tag != "review" {
		t.Fatalf("right side missing: %v", best.Right)
	}
	if id, _ := best.Right.Attr("id"); id != "1" {
		t.Errorf("joined review id = %s, want 1", id)
	}
	// Exactly 5 picked components × 1 surviving review.
	if len(results) != 5 {
		t.Errorf("results = %d, want 5", len(results))
	}
	for i := 1; i < len(results); i++ {
		if results[i].Score > results[i-1].Score {
			t.Errorf("not sorted at %d", i)
		}
		if id, _ := results[i].Right.Attr("id"); id != "1" {
			t.Errorf("result %d joined wrong review", i)
		}
	}
}

func TestEvalQuery3WithoutWhere(t *testing.T) {
	e := newEngine(t)
	// Without the Where clause, review 2 ("WWW Technologies", sim 1) also
	// joins: 5 components × 2 reviews = 10 results.
	results, err := e.EvalString(`
		For $a in document("articles.xml")//article
		For $b in document("reviews.xml")//review
		Let $sim := ScoreSim($a/article-title, $b/title)
		For $d in $a/descendant-or-self::*
		Score $d using ScoreFoo($d, {"search engine"}, {"internet", "information retrieval"})
		Pick $d using PickFoo($d)
		Score $r using ScoreBar($sim, $d)
		Sortby(score)
	`)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 10 {
		t.Fatalf("results = %d, want 10", len(results))
	}
}

func TestEvalQuery3Threshold(t *testing.T) {
	e := newEngine(t)
	results, err := e.EvalString(query3Src + ` Threshold $r/@score > 2 stop after 2`)
	if err != nil {
		// Threshold comes after Sortby in the grammar; rebuild the query.
		results, err = e.EvalString(`
			For $a in document("articles.xml")//article
			For $b in document("reviews.xml")//review
			Let $sim := ScoreSim($a/article-title, $b/title)
			Where $sim > 1
			For $d in $a/descendant-or-self::*
			Score $d using ScoreFoo($d, {"search engine"}, {"internet", "information retrieval"})
			Pick $d using PickFoo($d)
			Score $r using ScoreBar($sim, $d)
			Sortby(score)
			Threshold $r/@score > 2 stop after 2
		`)
		if err != nil {
			t.Fatal(err)
		}
	}
	if len(results) != 2 {
		t.Fatalf("results = %d, want 2", len(results))
	}
	for _, r := range results {
		if r.Score <= 2 {
			t.Errorf("threshold leak: %f", r.Score)
		}
	}
}

// joinShapeErrorCases are multi-For queries that break the join shape.
var joinShapeErrorCases = []string{
	// Two Fors only.
	`For $a in document("articles.xml")//article
	 For $b in document("reviews.xml")//review
	 Let $sim := ScoreSim($a/article-title, $b/title)`,
	// Missing Let.
	`For $a in document("articles.xml")//article
	 For $b in document("reviews.xml")//review
	 For $d in $a/descendant-or-self::*
	 Score $d using ScoreFoo($d, {"x"}, {})
	 Score $r using ScoreBar($sim, $d)`,
	// Component not relative to $a.
	`For $a in document("articles.xml")//article
	 For $b in document("reviews.xml")//review
	 Let $sim := ScoreSim($a/article-title, $b/title)
	 For $d in $b/descendant-or-self::*
	 Score $d using ScoreFoo($d, {"x"}, {})
	 Score $r using ScoreBar($sim, $d)`,
	// Missing ScoreBar.
	`For $a in document("articles.xml")//article
	 For $b in document("reviews.xml")//review
	 Let $sim := ScoreSim($a/article-title, $b/title)
	 For $d in $a/descendant-or-self::*
	 Score $d using ScoreFoo($d, {"x"}, {})`,
	// ScoreBar referencing the wrong vars.
	`For $a in document("articles.xml")//article
	 For $b in document("reviews.xml")//review
	 Let $sim := ScoreSim($a/article-title, $b/title)
	 For $d in $a/descendant-or-self::*
	 Score $d using ScoreFoo($d, {"x"}, {})
	 Score $r using ScoreBar($d, $sim)`,
	// Single-For query with a Let clause.
	`For $a in document("articles.xml")//article
	 Let $sim := ScoreSim($a/article-title, $a/article-title)`,
}

func TestEvalJoinShapeErrors(t *testing.T) {
	e := newEngine(t)
	for i, src := range joinShapeErrorCases {
		if _, err := e.EvalString(src); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
}
