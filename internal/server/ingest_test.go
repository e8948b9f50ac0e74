package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/db"
	"repro/internal/metrics"
	"repro/internal/shard"
	"repro/internal/xmltree"
)

// The serving facade must satisfy the optional mutation surface.
var _ Ingestor = (*shard.DB)(nil)

// newIngestServer builds a mutable server over a small live corpus.
func newIngestServer(t *testing.T) (*httptest.Server, *shard.DB) {
	t.Helper()
	d := shard.New(shard.Options{Shards: 1, Metrics: metrics.NewRegistry()})
	if err := d.LoadString("seed.xml", `<d><t>seed text here</t></d>`); err != nil {
		t.Fatal(err)
	}
	d.Warm()
	s := New(d)
	s.EnableIngest = true
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return ts, d
}

func doJSON(t *testing.T, method, url string, body interface{}) (*http.Response, map[string]json.RawMessage) {
	t.Helper()
	var buf bytes.Buffer
	if body != nil {
		if err := json.NewEncoder(&buf).Encode(body); err != nil {
			t.Fatal(err)
		}
	}
	req, err := http.NewRequest(method, url, &buf)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	var out map[string]json.RawMessage
	_ = json.NewDecoder(resp.Body).Decode(&out)
	return resp, out
}

func errCode(t *testing.T, out map[string]json.RawMessage) string {
	t.Helper()
	var code string
	if raw, ok := out["code"]; ok {
		_ = json.Unmarshal(raw, &code)
	}
	return code
}

func TestIngestAddQueryDelete(t *testing.T) {
	ts, d := newIngestServer(t)

	resp, out := doJSON(t, http.MethodPost, ts.URL+"/docs",
		IngestRequest{Name: "live.xml", XML: `<d><t>flamingo habitat</t></d>`})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("add status = %d (%v)", resp.StatusCode, out)
	}
	var gen uint64
	_ = json.Unmarshal(out["generation"], &gen)
	if gen == 0 {
		t.Fatal("add acknowledged with generation 0")
	}

	// The document is immediately searchable.
	resp, out = doJSON(t, http.MethodPost, ts.URL+"/terms", map[string]interface{}{"terms": []string{"flamingo"}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("terms status = %d", resp.StatusCode)
	}
	var count int
	_ = json.Unmarshal(out["count"], &count)
	if count == 0 {
		t.Fatal("added document not searchable")
	}

	// Update replaces the content.
	resp, _ = doJSON(t, http.MethodPut, ts.URL+"/docs/live.xml",
		IngestRequest{XML: `<d><t>pelican habitat</t></d>`})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("update status = %d", resp.StatusCode)
	}
	if res, err := d.TermSearchContext(context.Background(), []string{"flamingo"}, db.TermSearchOptions{}); err != nil || len(res) != 0 {
		t.Fatalf("stale content after update: %v, %v", res, err)
	}
	if res, err := d.TermSearchContext(context.Background(), []string{"pelican"}, db.TermSearchOptions{}); err != nil || len(res) == 0 {
		t.Fatalf("updated content missing: %v, %v", res, err)
	}

	// Delete retires it.
	resp, out = doJSON(t, http.MethodDelete, ts.URL+"/docs/live.xml", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("delete status = %d (%v)", resp.StatusCode, out)
	}
	var docs int
	_ = json.Unmarshal(out["documents"], &docs)
	if docs != 1 {
		t.Fatalf("documents after delete = %d, want 1", docs)
	}
	if res, err := d.TermSearchContext(context.Background(), []string{"pelican"}, db.TermSearchOptions{}); err != nil || len(res) != 0 {
		t.Fatalf("deleted content still searchable: %v, %v", res, err)
	}
}

func TestIngestErrorMapping(t *testing.T) {
	ts, _ := newIngestServer(t)

	// Conflict: the seed name is taken.
	resp, out := doJSON(t, http.MethodPost, ts.URL+"/docs",
		IngestRequest{Name: "seed.xml", XML: `<d/>`})
	if resp.StatusCode != http.StatusConflict || errCode(t, out) != "conflict" {
		t.Fatalf("duplicate add: status %d code %q", resp.StatusCode, errCode(t, out))
	}

	// Not found.
	resp, out = doJSON(t, http.MethodDelete, ts.URL+"/docs/nope.xml", nil)
	if resp.StatusCode != http.StatusNotFound || errCode(t, out) != "not_found" {
		t.Fatalf("missing delete: status %d code %q", resp.StatusCode, errCode(t, out))
	}
	resp, out = doJSON(t, http.MethodPut, ts.URL+"/docs/nope.xml", IngestRequest{XML: `<d/>`})
	if resp.StatusCode != http.StatusNotFound || errCode(t, out) != "not_found" {
		t.Fatalf("missing update: status %d code %q", resp.StatusCode, errCode(t, out))
	}

	// Unparsable XML.
	resp, out = doJSON(t, http.MethodPost, ts.URL+"/docs",
		IngestRequest{Name: "bad.xml", XML: `<d><unclosed`})
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("bad xml: status %d code %q", resp.StatusCode, errCode(t, out))
	}
	// XML that parses but that the tree cannot keep: a name whose local
	// part is not a name, and nesting past xmltree.MaxDepth.
	deep := xmltree.MaxDepth + 1
	for _, src := range []string{`<x:a A:0="" A00="">hi</x:a>`, strings.Repeat("<d>", deep) + strings.Repeat("</d>", deep)} {
		resp, out = doJSON(t, http.MethodPost, ts.URL+"/docs", IngestRequest{Name: "kept.xml", XML: src})
		if resp.StatusCode != http.StatusUnprocessableEntity {
			t.Fatalf("%.40s: status %d code %q", src, resp.StatusCode, errCode(t, out))
		}
	}

	// Missing fields.
	resp, out = doJSON(t, http.MethodPost, ts.URL+"/docs", IngestRequest{Name: "x.xml"})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("missing xml: status %d code %q", resp.StatusCode, errCode(t, out))
	}

	// Path/body name mismatch.
	resp, out = doJSON(t, http.MethodPut, ts.URL+"/docs/a.xml", IngestRequest{Name: "b.xml", XML: `<d/>`})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("name mismatch: status %d code %q", resp.StatusCode, errCode(t, out))
	}
}

func TestIngestDisabledReturns501(t *testing.T) {
	d := shard.New(shard.Options{Shards: 1, Metrics: metrics.NewRegistry()})
	s := New(d) // EnableIngest left false
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	for _, c := range []struct{ method, url string }{
		{http.MethodPost, ts.URL + "/docs"},
		{http.MethodPut, ts.URL + "/docs/x.xml"},
		{http.MethodDelete, ts.URL + "/docs/x.xml"},
	} {
		resp, out := doJSON(t, c.method, c.url, IngestRequest{Name: "x.xml", XML: `<d/>`})
		if resp.StatusCode != http.StatusNotImplemented || errCode(t, out) != "not_implemented" {
			t.Fatalf("%s %s: status %d code %q, want 501 not_implemented",
				c.method, c.url, resp.StatusCode, errCode(t, out))
		}
	}
}

func TestIngestMetricsRecorded(t *testing.T) {
	ts, d := newIngestServer(t)
	for i := 0; i < 3; i++ {
		resp, _ := doJSON(t, http.MethodPost, ts.URL+"/docs",
			IngestRequest{Name: fmt.Sprintf("m%d.xml", i), XML: `<d><t>metric probe</t></d>`})
		if resp.StatusCode != http.StatusCreated {
			t.Fatalf("add %d: status %d", i, resp.StatusCode)
		}
	}
	if got := d.MetricsRegistry().Counter(`tix_ingest_total{op="add"}`).Value(); got != 3 {
		t.Fatalf(`tix_ingest_total{op="add"} = %d, want 3`, got)
	}
	if gen := d.MetricsRegistry().Gauge("tix_index_generation").Value(); gen == 0 {
		t.Fatal("tix_index_generation gauge not published")
	}
}
