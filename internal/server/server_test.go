package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/fixture"
	"repro/internal/metrics"
	"repro/internal/shard"
)

// newIsolatedServer builds a server over the fixture corpus with its own
// metrics registry so tests can assert on exact counts.
func newIsolatedServer(t *testing.T) (*Server, *httptest.Server, *metrics.Registry) {
	t.Helper()
	reg := metrics.NewRegistry()
	d := shard.New(shard.Options{Shards: 1, Stemming: true, Metrics: reg})
	if err := d.LoadString("articles.xml", fixture.ArticlesXML); err != nil {
		t.Fatal(err)
	}
	if err := d.LoadString("reviews.xml", fixture.ReviewsXML); err != nil {
		t.Fatal(err)
	}
	s := New(d)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts, reg
}

func newTestServer(t *testing.T) *httptest.Server {
	t.Helper()
	_, ts, _ := newIsolatedServer(t)
	return ts
}

func postJSON(t *testing.T, url string, body interface{}) (*http.Response, map[string]json.RawMessage) {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	var out map[string]json.RawMessage
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("decode: %v", err)
	}
	return resp, out
}

func TestStatsEndpoint(t *testing.T) {
	ts := newTestServer(t)
	resp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	var st StatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Documents != 2 || st.Nodes == 0 || st.Terms == 0 {
		t.Errorf("stats = %+v", st)
	}
}

func TestQueryEndpoint(t *testing.T) {
	ts := newTestServer(t)
	resp, out := postJSON(t, ts.URL+"/query", QueryRequest{Query: `
		For $a in document("articles.xml")//article/descendant-or-self::*
		Score $a using ScoreFoo($a, {"search engine"}, {"internet", "information retrieval"})
		Pick $a using PickFoo($a)
		Sortby(score)
		Threshold $a/@score > 4 stop after 5
	`})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d: %s", resp.StatusCode, out["error"])
	}
	var results []QueryResult
	if err := json.Unmarshal(out["results"], &results); err != nil {
		t.Fatal(err)
	}
	if len(results) != 1 || results[0].Tag != "chapter" || results[0].Score != 5.0 {
		t.Errorf("results = %+v", results)
	}
	if !strings.Contains(results[0].XML, "Search and Retrieval") {
		t.Errorf("XML payload missing content")
	}
}

func TestQueryEndpointErrors(t *testing.T) {
	ts := newTestServer(t)
	resp, _ := postJSON(t, ts.URL+"/query", QueryRequest{Query: "garbage !!"})
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Errorf("bad query status = %d", resp.StatusCode)
	}
	resp, _ = postJSON(t, ts.URL+"/query", QueryRequest{})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("empty query status = %d", resp.StatusCode)
	}
	r2, err := http.Post(ts.URL+"/query", "application/json", strings.NewReader("{not json"))
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Body.Close()
	if r2.StatusCode != http.StatusBadRequest {
		t.Errorf("bad body status = %d", r2.StatusCode)
	}
	// Wrong method.
	r3, err := http.Get(ts.URL + "/query")
	if err != nil {
		t.Fatal(err)
	}
	defer r3.Body.Close()
	if r3.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /query status = %d", r3.StatusCode)
	}
}

func TestExplainEndpoint(t *testing.T) {
	ts := newTestServer(t)
	resp, out := postJSON(t, ts.URL+"/explain", QueryRequest{Query: `
		For $a in document("articles.xml")//article/descendant-or-self::*
		Score $a using ScoreFoo($a, {"search engine"}, {})
	`})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	var plan string
	if err := json.Unmarshal(out["plan"], &plan); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plan, "TermJoin") || !strings.Contains(plan, "PhraseFinder") {
		t.Errorf("plan = %q", plan)
	}
	resp, _ = postJSON(t, ts.URL+"/explain", QueryRequest{Query: "nope"})
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Errorf("bad query status = %d", resp.StatusCode)
	}
}

// TestExplainRejectsWhatQueryRejects posts three queries /query rejects to
// /explain: a join without ScoreBar, a Score clause on a variable the For
// does not bind, and a descendant-or-self::* that is not the final step.
// The plan request must fail the same way.
func TestExplainRejectsWhatQueryRejects(t *testing.T) {
	ts := newTestServer(t)
	for _, q := range []string{
		`For $a in document("articles.xml")//article
		 For $b in document("reviews.xml")//review
		 Let $sim := ScoreSim($a/article-title, $b/title)
		 For $d in $a/descendant-or-self::*
		 Score $d using ScoreFoo($d, {"search engine"}, {})`,
		`For $a in document("articles.xml")//article/descendant-or-self::*
		 Score $x using ScoreFoo($x, {"search engine"}, {})`,
		`For $a in document("articles.xml")//article/descendant-or-self::*/p`,
	} {
		queryResp, _ := postJSON(t, ts.URL+"/query", QueryRequest{Query: q})
		explainResp, out := postJSON(t, ts.URL+"/explain", QueryRequest{Query: q})
		if queryResp.StatusCode != http.StatusUnprocessableEntity || explainResp.StatusCode != http.StatusUnprocessableEntity {
			t.Errorf("%s: /query status %d, /explain status %d (%s), want 422 for both",
				q, queryResp.StatusCode, explainResp.StatusCode, out["plan"])
		}
	}
}

func TestTermsEndpoint(t *testing.T) {
	ts := newTestServer(t)
	resp, out := postJSON(t, ts.URL+"/terms", TermsRequest{Terms: []string{"search", "engine"}, TopK: 3})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	var results []TermResult
	if err := json.Unmarshal(out["results"], &results); err != nil {
		t.Fatal(err)
	}
	if len(results) != 3 {
		t.Fatalf("results = %d", len(results))
	}
	if results[0].Tag != "article" {
		t.Errorf("best tag = %s", results[0].Tag)
	}
	resp, _ = postJSON(t, ts.URL+"/terms", TermsRequest{})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("no terms status = %d", resp.StatusCode)
	}
}

func TestPhraseEndpoint(t *testing.T) {
	ts := newTestServer(t)
	resp, out := postJSON(t, ts.URL+"/phrase", PhraseRequest{Phrase: []string{"information", "retrieval"}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	var count int
	if err := json.Unmarshal(out["count"], &count); err != nil {
		t.Fatal(err)
	}
	if count != 3 {
		t.Errorf("count = %d, want 3", count)
	}
	var results []PhraseResult
	if err := json.Unmarshal(out["results"], &results); err != nil {
		t.Fatal(err)
	}
	for _, r := range results {
		if !strings.Contains(strings.ToLower(r.Text), "information retrieval") {
			t.Errorf("result text %q lacks the phrase", r.Text)
		}
	}
	resp, _ = postJSON(t, ts.URL+"/phrase", PhraseRequest{})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("empty phrase status = %d", resp.StatusCode)
	}
}

func TestOversizedBodyRejected(t *testing.T) {
	s, ts, _ := newIsolatedServer(t)
	s.MaxBodyBytes = 256
	for _, path := range []string{"/query", "/explain", "/terms", "/phrase"} {
		body := `{"query": "` + strings.Repeat("x", 1024) + `"}`
		resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Errorf("%s oversized body status = %d, want 413", path, resp.StatusCode)
		}
	}
}

func TestUnknownFieldsRejected(t *testing.T) {
	ts := newTestServer(t)
	// "parallel" was a /terms field once; it is unknown now.
	for _, body := range []string{`{"terms":["a"],"nonsense":true}`, `{"terms":["a"],"parallel":2}`} {
		resp, err := http.Post(ts.URL+"/terms", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status = %d, want 400", body, resp.StatusCode)
		}
	}
}

func TestHealthzEndpoint(t *testing.T) {
	ts := newTestServer(t)
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	var h HealthzResponse
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || h.Documents != 2 || h.UptimeSeconds < 0 {
		t.Errorf("healthz = %+v", h)
	}
}

// TestMetricsEndpoint is the acceptance check of the observability layer:
// after a POST /query, GET /metrics must show nonzero query-latency
// histogram counts, the query's access-stat counters, and the HTTP
// middleware's own request accounting.
func TestMetricsEndpoint(t *testing.T) {
	ts := newTestServer(t)
	resp, out := postJSON(t, ts.URL+"/query", QueryRequest{Query: `
		For $a in document("articles.xml")//article/descendant-or-self::*
		Score $a using ScoreFoo($a, {"search engine"}, {"internet"})
		Sortby(score)
	`})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("query status = %d: %s", resp.StatusCode, out["error"])
	}

	mr, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mr.Body.Close()
	if mr.StatusCode != http.StatusOK {
		t.Fatalf("metrics status = %d", mr.StatusCode)
	}
	if ct := mr.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("content type = %q", ct)
	}
	b, err := io.ReadAll(mr.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(b)
	for _, want := range []string{
		`tix_query_seconds_count{op="query"} 1`,
		`tix_queries_total{op="query"} 1`,
		`tix_http_requests_total{method="POST",path="/query",status="200"} 1`,
		"# TYPE tix_query_seconds histogram",
		"# TYPE tix_access_node_reads_total counter",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics exposition missing %q", want)
		}
	}
	// Access-stat counters must be nonzero after a real query.
	var nodeReads int64
	for _, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(line, `tix_access_node_reads_total{op="query"} `) {
			if _, err := fmt.Sscanf(line, `tix_access_node_reads_total{op="query"} %d`, &nodeReads); err != nil {
				t.Fatal(err)
			}
		}
	}
	if nodeReads == 0 {
		t.Errorf("node-read counter is zero after a query\n%s", text)
	}
}

func TestTermsTopKCappedByMaxResults(t *testing.T) {
	s, ts, _ := newIsolatedServer(t)
	s.MaxResults = 2
	resp, out := postJSON(t, ts.URL+"/terms", TermsRequest{Terms: []string{"search", "engine"}, TopK: 50})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	var results []TermResult
	if err := json.Unmarshal(out["results"], &results); err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 {
		t.Errorf("topK beyond MaxResults returned %d results, want 2", len(results))
	}
}

func TestGracefulShutdownDrains(t *testing.T) {
	s, _, _ := newIsolatedServer(t)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- s.ListenAndServeContext(ctx, "127.0.0.1:0", 5*time.Second) }()
	time.Sleep(50 * time.Millisecond) // let the listener start
	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Errorf("graceful shutdown returned %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("server did not shut down")
	}
}

func TestMaxResultsCap(t *testing.T) {
	d := shard.New(shard.Options{Shards: 1, Stemming: true})
	if err := d.LoadString("articles.xml", fixture.ArticlesXML); err != nil {
		t.Fatal(err)
	}
	s := New(d)
	s.MaxResults = 2
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	resp, out := postJSON(t, ts.URL+"/query", QueryRequest{Query: `
		For $a in document("articles.xml")//article/descendant-or-self::*
		Score $a using ScoreFoo($a, {"search engine"}, {"internet", "information retrieval"})
		Sortby(score)
	`})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	var results []QueryResult
	if err := json.Unmarshal(out["results"], &results); err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 {
		t.Errorf("capped results = %d, want 2", len(results))
	}
	var count int
	if err := json.Unmarshal(out["count"], &count); err != nil {
		t.Fatal(err)
	}
	if count != 11 {
		t.Errorf("total count = %d, want 11", count)
	}
}
