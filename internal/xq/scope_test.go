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
	const other = `<notes>
  <note>search engine internet search engine</note>
  <note><p>information retrieval for the search engine</p><p>internet</p></note>
</notes>`
	run := func(extra bool) ([]string, storage.AccessStats) {
		s := storage.NewStore()
		docs := []struct{ name, src string }{
			{"articles.xml", fixture.ArticlesXML},
			{"reviews.xml", fixture.ReviewsXML},
		}
		if extra {
			docs = append(docs, struct{ name, src string }{"notes.xml", other})
		}
		for _, d := range docs {
			if _, err := s.AddTree(d.name, mustParse(d.src)); err != nil {
				t.Fatal(err)
			}
		}
		var stats storage.AccessStats
		e := &Engine{Store: s, Index: index.Build(s, tokenize.NewStemming()), Stats: &stats}
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
	wantKeys, wantStats := run(false)
	gotKeys, gotStats := run(true)
	for i := range wantKeys {
		if gotKeys[i] != wantKeys[i] {
			t.Errorf("query %d: results with the planted document %s, without %s", i, gotKeys[i], wantKeys[i])
		}
	}
	if gotStats != wantStats {
		t.Errorf("store traffic with the planted document %+v, without %+v", gotStats, wantStats)
	}
}
