package xq

import (
	"strings"
	"testing"

	"repro/internal/fixture"
	"repro/internal/index"
	"repro/internal/storage"
	"repro/internal/tokenize"
)

// TestScoringIsScopedToTheBoundDocument plants Query 1's phrase and
// secondary terms in a second document of the same segment. Query 1 binds
// articles.xml, so its results and its store traffic must be exactly
// those on the corpus without that document: the IR step reads only the
// bound document's postings.
func TestScoringIsScopedToTheBoundDocument(t *testing.T) {
	run := func(e *Engine) ([]string, storage.AccessStats) {
		var stats storage.AccessStats
		e.Stats = &stats
		var keys []string
		for _, src := range []string{query1Src, stopAfterSingle + stopAfterPick} {
			rs, err := e.EvalString(src)
			if err != nil {
				t.Fatal(err)
			}
			keys = append(keys, strings.Join(resultKeys(rs), " "))
		}
		return keys, stats
	}
	wantKeys, wantStats := run(newEngine(t))
	gotKeys, gotStats := run(plantedEngine(t))
	for i := range wantKeys {
		if gotKeys[i] != wantKeys[i] {
			t.Errorf("query %d: results with the planted document %s, without %s", i, gotKeys[i], wantKeys[i])
		}
	}
	if gotStats != wantStats {
		t.Errorf("store traffic with the planted document %+v, without %+v", gotStats, wantStats)
	}
}

// plantedEngine is newEngine's corpus plus notes.xml, a third document
// holding Query 1's phrase and secondary terms.
func plantedEngine(t testing.TB) *Engine {
	t.Helper()
	const notes = `<notes>
  <note>search engine internet search engine</note>
  <note><p>information retrieval for the search engine</p><p>internet</p></note>
</notes>`
	s := storage.NewStore()
	for _, d := range []struct{ name, src string }{
		{"articles.xml", fixture.ArticlesXML},
		{"reviews.xml", fixture.ReviewsXML},
		{"notes.xml", notes},
	} {
		if _, err := s.AddTree(d.name, mustParse(d.src)); err != nil {
			t.Fatal(err)
		}
	}
	return &Engine{Index: index.Build(s, tokenize.NewStemming())}
}
