package db

import (
	"context"
	"errors"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/fixture"
	"repro/internal/storage"
)

func newFixtureDB(t testing.TB) *DB {
	t.Helper()
	d := New(Options{Stemming: true})
	if err := d.LoadString("articles.xml", fixture.ArticlesXML); err != nil {
		t.Fatal(err)
	}
	if err := d.LoadString("reviews.xml", fixture.ReviewsXML); err != nil {
		t.Fatal(err)
	}
	return d
}

func approx(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestLoadFileAndStats(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "articles.xml")
	if err := os.WriteFile(path, []byte(fixture.ArticlesXML), 0o644); err != nil {
		t.Fatal(err)
	}
	d := New(Options{Stemming: true})
	if err := d.LoadFile(path); err != nil {
		t.Fatal(err)
	}
	st := d.Stats()
	if st.Documents != 1 || st.Nodes == 0 || st.Elements == 0 || st.Terms == 0 || st.Occurrences == 0 {
		t.Errorf("stats = %+v", st)
	}
	if err := d.LoadFile(filepath.Join(dir, "missing.xml")); err == nil {
		t.Errorf("missing file should error")
	}
	if err := d.LoadString("bad.xml", "<a><b></a>"); err == nil {
		t.Errorf("malformed XML should error")
	}
	if err := d.LoadString("articles.xml", "<a/>"); err == nil {
		t.Errorf("duplicate name should error")
	}
}

// TestQuery2Integration runs the paper's Query 2 through the full stack:
// parser → path evaluation → PhraseFinder → TermJoin → StackPick →
// threshold. The expected top result is the chapter #a10 (Example 3.1).
func TestQuery2Integration(t *testing.T) {
	d := newFixtureDB(t)
	results, err := d.QueryContext(context.Background(), `
		For $a := document("articles.xml")//article[/author/sname/text()="Doe"]/descendant-or-self::*
		Score $a using ScoreFoo($a, {"search engine"}, {"internet", "information retrieval"})
		Pick $a using PickFoo($a)
		Return <result><score>$a/@score</score>{ $a }</result>
		Sortby(score)
		Threshold $a/@score > 4 stop after 5
	`)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 1 {
		t.Fatalf("results = %d, want 1", len(results))
	}
	if results[0].Node.Tag != "chapter" || !approx(results[0].Score, 5.0) {
		t.Errorf("top = %s[%f], want chapter[5.0]", results[0].Node.Tag, results[0].Score)
	}
	// The returned subtree is the real chapter content.
	if got := results[0].Node.FirstTag("ct"); got == nil || got.AllText() != "Search and Retrieval" {
		t.Errorf("chapter content wrong")
	}
}

func TestTermSearch(t *testing.T) {
	d := newFixtureDB(t)
	results, err := d.TermSearchContext(context.Background(), []string{"search", "retrieval"}, TermSearchOptions{TopK: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 3 {
		t.Fatalf("results = %d", len(results))
	}
	for i := 1; i < len(results); i++ {
		if results[i].Score > results[i-1].Score {
			t.Errorf("not best-first")
		}
	}
	// The article root should be the global best (contains everything).
	if best := d.Render(nil, results[:1])[0]; best != "article" {
		t.Errorf("best = %s, want article", best)
	}
}

func TestPhraseSearchAndMaterialize(t *testing.T) {
	d := newFixtureDB(t)
	ms, err := d.PhraseSearchContext(context.Background(), []string{"information", "retrieval"})
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 3 {
		t.Errorf("matches = %d, want 3 (#a15 title, #a19, #a20)", len(ms))
	}
	n := storage.NewAccessor(d.Store()).Materialize(ms[0].Doc, ms[0].Node)
	if n == nil || !strings.Contains(strings.ToLower(n.AllText()), "information retrieval") {
		t.Errorf("materialized node does not contain the phrase: %v", n)
	}
}

func TestStopwordsOption(t *testing.T) {
	d := New(Options{Stopwords: []string{"the", "and"}})
	if err := d.LoadString("x.xml", `<a>the cat and the hat</a>`); err != nil {
		t.Fatal(err)
	}
	idx := d.Index()
	if idx.TermFreq("the") != 0 || idx.TermFreq("and") != 0 {
		t.Errorf("stopwords indexed")
	}
	if idx.TermFreq("cat") != 1 || idx.TermFreq("hat") != 1 {
		t.Errorf("content words missing")
	}
}

// TestRemoveDocument deletes documents from a bulk-loaded database: the
// removed one stops matching, the rest keeps answering, and the name can
// be loaded again.
func TestRemoveDocument(t *testing.T) {
	d := newFixtureDB(t)
	if d.Stats().Documents != 2 {
		t.Fatalf("documents = %d", d.Stats().Documents)
	}
	if err := d.Delete("reviews.xml"); err != nil {
		t.Fatal(err)
	}
	st := d.Stats()
	if st.Documents != 1 {
		t.Fatalf("documents after remove = %d", st.Documents)
	}
	// Terms only present in reviews.xml no longer match anything.
	if res, err := d.TermSearchContext(context.Background(), []string{"anonymous"}, TermSearchOptions{}); err != nil || len(res) != 0 {
		t.Errorf("removed document still matches: %v, %v", res, err)
	}
	if res, err := d.TermSearchContext(context.Background(), []string{"search"}, TermSearchOptions{}); err != nil || len(res) == 0 {
		t.Errorf("remaining document's terms lost: %v, %v", res, err)
	}
	// Queries over the remaining document still work.
	results, err := d.QueryContext(context.Background(), `
		For $a in document("articles.xml")//article/descendant-or-self::*
		Score $a using ScoreFoo($a, {"search engine"}, {})
		Sortby(score)
		Threshold $a/@score stop after 1`)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 1 {
		t.Errorf("query after removal broken")
	}
	// Removing an unknown document errors; removing the last works.
	if err := d.Delete("nope.xml"); !errors.Is(err, ErrDocumentNotFound) {
		t.Errorf("unknown removal: err = %v, want ErrDocumentNotFound", err)
	}
	if err := d.Delete("articles.xml"); err != nil {
		t.Fatal(err)
	}
	if d.Stats().Documents != 0 {
		t.Errorf("documents after removing all = %d", d.Stats().Documents)
	}
	// And the name can be reloaded afterwards.
	if err := d.LoadString("articles.xml", "<a>fresh</a>"); err != nil {
		t.Errorf("reload after removal: %v", err)
	}
}

func TestIndexInvalidationOnLoad(t *testing.T) {
	d := New(Options{})
	if err := d.LoadString("a.xml", `<a>one</a>`); err != nil {
		t.Fatal(err)
	}
	if d.Index().TermFreq("two") != 0 {
		t.Fatalf("unexpected term")
	}
	if err := d.LoadString("b.xml", `<b>two</b>`); err != nil {
		t.Fatal(err)
	}
	if d.Index().TermFreq("two") != 1 {
		t.Errorf("index not rebuilt after load")
	}
}
