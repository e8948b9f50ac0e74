package server

import (
	"bytes"
	"encoding/json"
	"flag"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/fixture"
	"repro/internal/fleet"
	"repro/internal/metrics"
	"repro/internal/shard"
)

var update = flag.Bool("update", false, "regenerate the reply goldens in testdata")

// postReply posts body to url and returns the reply's exact bytes,
// failing the test on any status but 200.
func postReply(t *testing.T, url string, body interface{}) []byte {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	got, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("%s: status %d: %s", url, resp.StatusCode, got)
	}
	return got
}

// checkGolden compares a reply with testdata/file, or records it under
// -update.
func checkGolden(t *testing.T, file string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", file)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to record)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s: reply changed:\n got %s\nwant %s", file, got, want)
	}
}

// TestQueryReplyGolden pins the exact bytes of /query replies for the
// paper's Query 1 on the fixture corpus, with and without Pick: rendering
// changes (XML serialization, JSON encoding, result order) must not move a
// byte. Regenerate after an intentional format change with
//
//	go test ./internal/server -run ReplyGolden -update
func TestQueryReplyGolden(t *testing.T) {
	cases := []struct{ file, query string }{
		{"query1_pick.golden", `For $a in document("articles.xml")//article/descendant-or-self::*
Score $a using ScoreFoo($a, {"search engine"}, {"internet", "information retrieval"})
Pick $a using PickFoo($a)
Sortby(score)
Threshold $a/@score > 0.5 stop after 5`},
		{"query1_nopick.golden", `For $a in document("articles.xml")//article/descendant-or-self::*
Score $a using ScoreFoo($a, {"search engine"}, {"internet", "information retrieval"})
Sortby(score)
Threshold $a/@score stop after 4`},
	}
	ts := newTestServer(t)
	for _, c := range cases {
		checkGolden(t, c.file, postReply(t, ts.URL+"/query", QueryRequest{Query: c.query}))
	}
}

// escapesXML is a third document whose text needs every JSON escape a
// reply can carry: HTML-sensitive <>&, quotes, non-ASCII, and the line and
// paragraph separators U+2028 and U+2029.
const escapesXML = "<note><p>a search engine for &lt;b&gt; &amp; \"quoted\" caf\u00e9 text</p>" +
	"<p>information retrieval\u2028across lines\u2029and search engine tabs\tend</p></note>"

// replyBackends builds the backends every /terms and /phrase golden must
// answer identically on: one shard, three shards, and a fleet of three
// replicas, all over the fixture corpus plus escapesXML.
func replyBackends(t *testing.T) []namedBackend {
	t.Helper()
	load := func(shards int) *shard.DB {
		d := shard.New(shard.Options{Shards: shards, Stemming: true, Metrics: metrics.NewRegistry()})
		for _, doc := range []struct{ name, xml string }{
			{"articles.xml", fixture.ArticlesXML},
			{"reviews.xml", fixture.ReviewsXML},
			{"escapes.xml", escapesXML},
		} {
			if err := d.LoadString(doc.name, doc.xml); err != nil {
				t.Fatal(err)
			}
		}
		return d
	}
	var replicas []fleet.Backend
	for i := 0; i < 3; i++ {
		replicas = append(replicas, load(1))
	}
	f, err := fleet.New(fleet.Config{HedgeAfter: -1, Metrics: metrics.NewRegistry()}, replicas...)
	if err != nil {
		t.Fatal(err)
	}
	return []namedBackend{{"1shard", load(1)}, {"3shards", load(3)}, {"fleet3", f}}
}

type namedBackend struct {
	name string
	b    Backend
}

// TestTermsPhraseReplyGolden pins the exact bytes of /terms and /phrase
// replies, one golden per request shared by every backend of
// replyBackends: the same corpus must answer byte for byte alike however
// it is sharded or replicated.
func TestTermsPhraseReplyGolden(t *testing.T) {
	cases := []struct {
		file       string
		path       string
		maxResults int
		body       interface{}
	}{
		{"terms_simple.golden", "/terms", 0, TermsRequest{Terms: []string{"search", "engine"}}},
		{"terms_topk_complex.golden", "/terms", 0, TermsRequest{Terms: []string{"information", "retrieval"}, TopK: 3, Complex: true}},
		{"terms_empty.golden", "/terms", 0, TermsRequest{Terms: []string{"zyzzyva"}}},
		{"phrase_escapes.golden", "/phrase", 0, PhraseRequest{Phrase: []string{"search", "engine"}}},
		{"phrase_capped.golden", "/phrase", 2, PhraseRequest{Phrase: []string{"information", "retrieval"}}},
		{"phrase_empty.golden", "/phrase", 0, PhraseRequest{Phrase: []string{"zyzzyva", "engine"}}},
	}
	for i, nb := range replyBackends(t) {
		t.Run(nb.name, func(t *testing.T) {
			s := New(nb.b)
			ts := httptest.NewServer(s.Handler())
			defer ts.Close()
			for _, c := range cases {
				s.MaxResults = c.maxResults
				got := postReply(t, ts.URL+c.path, c.body)
				if *update && i > 0 {
					continue // record from one backend; the others must match it
				}
				checkGolden(t, c.file, got)
			}
		})
	}
}
