package xq

import (
	"fmt"
	"regexp"
	"strings"
	"testing"

	"repro/internal/storage"
)

// explain is what a plan request runs: parse, compile, print.
func explain(e *Engine, src string) (string, error) {
	q, err := Parse(src)
	if err != nil {
		return "", err
	}
	p, err := Compile(q, e.Index)
	if err != nil {
		return "", err
	}
	return p.String(), nil
}

func ExampleCompile() {
	q, err := Parse(query2Src)
	if err != nil {
		panic(err)
	}
	p, err := Compile(q, fixtureIndex())
	if err != nil {
		panic(err)
	}
	fmt.Print(p)
	// Output:
	//   document("articles.xml")
	//   extent scan //article: 1 elements
	//   filter [/author/sname/text()="Doe"]
	//   PhraseFinder "search engine", weight 0.8
	//   postings "internet", weight 0.6: 1 in the bound document
	//   PhraseFinder "information retrieval", weight 0.6
	//   TermJoin over 3 pseudo-terms, Range-scoped to the bound document
	//   PickArena over each anchor's descendant-or-self::*, relevance threshold 0.8
	//   threshold score > 4
	//   TopK: stop after 5
	//   materialize result subtrees
}

func ExampleCompile_join() {
	q, err := Parse(query3Src)
	if err != nil {
		panic(err)
	}
	p, err := Compile(q, fixtureIndex())
	if err != nil {
		panic(err)
	}
	fmt.Print(p)
	// Output:
	//   document("articles.xml")
	//   extent scan //article: 1 elements
	//   filter [/author/sname/text()="Doe"]
	//   document("reviews.xml")
	//   extent scan //review: 2 elements
	//   PhraseFinder "search engine", weight 0.8
	//   postings "internet", weight 0.6: 1 in the bound document
	//   PhraseFinder "information retrieval", weight 0.6
	//   TermJoin over 3 pseudo-terms, Range-scoped to the bound document
	//   PickArena over each anchor's descendant-or-self::*, relevance threshold 0.8
	//   join on ScoreSim($a/article-title, $b/title) > 1
	//   ScoreBar($sim, component score)
	//   stable sort by score, descending
	//   materialize result subtrees
}

// rejectedQueries are the queries Eval must reject: the suites' error
// cases, an empty phrase, and three shapes only Compile's checks catch — a
// join without ScoreBar, a Score clause on a variable the For does not
// bind, and a descendant-or-self::* that is not the final step.
func rejectedQueries() []string {
	out := append(append([]string{}, evalErrorCases...), joinShapeErrorCases...)
	return append(out,
		`garbage`,
		`For $a in document("nope.xml")//x`,
		`For $a in document("articles.xml")//article/descendant-or-self::* Score $a using ScoreFoo($a, {""}, {})`,
		`For $a in document("articles.xml")//article
		 For $b in document("reviews.xml")//review
		 Let $sim := ScoreSim($a/article-title, $b/title)
		 For $d in $a/descendant-or-self::*
		 Score $d using ScoreFoo($d, {"search engine"}, {})
		 Pick $d using PickFoo($d)`,
		`For $a in document("articles.xml")//article/descendant-or-self::* Score $x using ScoreFoo($x, {"search engine"}, {})`,
		`For $a in document("articles.xml")//article/descendant-or-self::*/p Score $a using ScoreFoo($a, {"search engine"}, {})`,
	)
}

// TestExplainErrors pins that explaining a query fails exactly when
// evaluating it does, with the same error.
func TestExplainErrors(t *testing.T) {
	e := newEngine(t)
	for _, src := range rejectedQueries() {
		_, evalErr := e.EvalString(src)
		_, explainErr := explain(e, src)
		if evalErr == nil || explainErr == nil {
			t.Errorf("%s: Eval error %v, Explain error %v; want both to fail", src, evalErr, explainErr)
			continue
		}
		if evalErr.Error() != explainErr.Error() {
			t.Errorf("%s: Eval error %q, Explain error %q", src, evalErr, explainErr)
		}
	}
}

// TestExplainRunsNoOperator compiles and prints Queries 1–3 through an
// engine with a Stats sink: no store access, and no step carries actuals.
// The one posting count printed is the bound document's, so planting the
// query's terms in another document of the corpus leaves the plan as is.
func TestExplainRunsNoOperator(t *testing.T) {
	var stats storage.AccessStats
	e := &Engine{Index: fixtureIndex(), Stats: &stats}
	planted := plantedEngine(t)
	for _, src := range []string{query1Src, query2Src, query3Src} {
		plan, err := explain(e, src)
		if err != nil {
			t.Fatal(err)
		}
		if strings.Contains(plan, "rows") {
			t.Errorf("a plan that has not run prints actuals:\n%s", plan)
		}
		if got, err := explain(planted, src); err != nil || got != plan {
			t.Errorf("plan with the planted document (%v):\n%s\nwithout:\n%s", err, got, plan)
		}
	}
	if stats != (storage.AccessStats{}) {
		t.Errorf("explaining read the store: %+v", stats)
	}
	if _, err := e.EvalString(query1Src); err != nil || stats == (storage.AccessStats{}) {
		t.Errorf("Eval through the same engine: %v, %+v", err, stats)
	}
}

// validQueries are the query shapes the xq suites evaluate successfully.
var validQueries = []string{
	query1Src, query2Src, query3Src,
	query3Src + ` Threshold $r/@score > 2 stop after 2`,
	stopAfterSingle, stopAfterSingle + stopAfterPick + ` Sortby(score) Threshold $a/@score > 0.5 stop after 3`,
	stopAfterJoin + stopAfterJoinPick, stopAfterJoin + ` Score $r using ScoreBar($sim, $d) Threshold $r/@score stop after 4`,
	`For $c in document("articles.xml")//chapter`,
	`For $t in document("articles.xml")//author/sname`,
	`For $r in document("reviews.xml")//review[@id="2"]`,
	`For $r in document("reviews.xml")//review[rating]`,
	`For $a in document("articles.xml")//article[/author/sname/text()="Smith"]`,
	`For $x in document("articles.xml")//section/*`,
	`For $s in document("articles.xml")//article//section`,
	`For $a in document("articles.xml")//article/descendant-or-self::*`,
	`For $c in document("articles.xml")//chapter
	 Score $c using ScoreFoo($c, {"search engine"}, {"internet", "information retrieval"}) Sortby(score)`,
	`For $a in document("articles.xml")//article/descendant-or-self::*
	 Score $a using ScoreFoo($a, {"search engine"} weight 1.6, {}) Sortby(score)`,
	`For $a in document("articles.xml")//article/descendant-or-self::*
	 Score $a using ScoreFoo($a, {"quantum chromodynamics"}, {})`,
	`For $a in document("articles.xml")//article/descendant-or-self::*
	 Score $a using ScoreFoo($a, {"search engine"}, {}) Pick $a using PickFoo($a, 0.5)`,
}

// TestExplainMatchesWhatRuns evaluates every valid query through its
// compiled plan: each step the plan prints must have run, and the plan
// printed after the run is the explained plan with the actuals appended.
func TestExplainMatchesWhatRuns(t *testing.T) {
	e := newEngine(t)
	actuals := regexp.MustCompile(` → \d+ rows\n`)
	for _, src := range validQueries {
		before, err := explain(e, src)
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		q, _ := Parse(src)
		p, err := Compile(q, e.Index)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := e.run(p); err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		for _, s := range p.steps {
			if s.rows < 0 {
				t.Errorf("%s: step %v printed but not run", src, s.op)
			}
		}
		after := p.String()
		if n := len(actuals.FindAllString(after, -1)); n != len(p.steps) || n != strings.Count(before, "\n") {
			t.Errorf("%s: %d steps, %d lines with actuals, %d explained lines:\n%s", src, len(p.steps), n, strings.Count(before, "\n"), after)
		}
		if got := actuals.ReplaceAllString(after, "\n"); got != before {
			t.Errorf("%s: ran\n%s\nexplained\n%s", src, got, before)
		}
	}
}
