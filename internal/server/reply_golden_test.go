package server

import (
	"bytes"
	"encoding/json"
	"flag"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "regenerate the reply goldens in testdata")

// TestQueryReplyGolden pins the exact bytes of /query replies for the
// paper's Query 1 on the fixture corpus, with and without Pick: rendering
// changes (XML serialization, JSON encoding, result order) must not move a
// byte. Regenerate after an intentional format change with
//
//	go test ./internal/server -run TestQueryReplyGolden -update
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
		body, err := json.Marshal(QueryRequest{Query: c.query})
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(ts.URL+"/query", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		got, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d: %s", c.file, resp.StatusCode, got)
		}
		path := filepath.Join("testdata", c.file)
		if *update {
			if err := os.MkdirAll("testdata", 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, got, 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%v (run with -update to record)", err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: reply changed:\n got %s\nwant %s", c.file, got, want)
		}
	}
}
