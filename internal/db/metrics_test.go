package db

import (
	"strings"
	"testing"

	"repro/internal/fixture"
	"repro/internal/metrics"
)

func newMeteredDB(t *testing.T) (*DB, *metrics.Registry) {
	t.Helper()
	reg := metrics.NewRegistry()
	d := New(Options{Stemming: true, Metrics: reg})
	if err := d.LoadString("articles.xml", fixture.ArticlesXML); err != nil {
		t.Fatal(err)
	}
	if err := d.LoadString("reviews.xml", fixture.ReviewsXML); err != nil {
		t.Fatal(err)
	}
	return d, reg
}

func TestQueryRecordsMetrics(t *testing.T) {
	d, reg := newMeteredDB(t)
	_, err := d.Query(`
		For $a in document("articles.xml")//article/descendant-or-self::*
		Score $a using ScoreFoo($a, {"search engine"}, {"internet"})
		Sortby(score)
	`)
	if err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter(`tix_queries_total{op="query"}`).Value(); got != 1 {
		t.Errorf("queries_total = %d, want 1", got)
	}
	if got := reg.Counter(`tix_query_results_total{op="query"}`).Value(); got == 0 {
		t.Error("query produced no recorded results")
	}
	if got := reg.Counter(`tix_access_node_reads_total{op="query"}`).Value(); got == 0 {
		t.Error("query recorded no node reads (engine stats sink not wired)")
	}
	if got := reg.Histogram(`tix_query_seconds{op="query"}`).Count(); got != 1 {
		t.Errorf("latency observations = %d, want 1", got)
	}

	// Errors count separately and do not record results.
	if _, err := d.Query("garbage !!"); err == nil {
		t.Fatal("bad query did not error")
	}
	if got := reg.Counter(`tix_query_errors_total{op="query"}`).Value(); got != 1 {
		t.Errorf("query_errors_total = %d, want 1", got)
	}
}

func TestTermAndPhraseSearchRecordMetrics(t *testing.T) {
	d, reg := newMeteredDB(t)
	reads := reg.Counter(`tix_access_node_reads_total{op="terms"}`)
	// A top-k search runs the pruned TopKTermJoin; a search without one
	// runs ParallelTermJoin. Both must surface access stats through the
	// shared AccessReporter interface.
	if _, err := d.TermSearch([]string{"search", "engine"}, TermSearchOptions{TopK: 5}); err != nil {
		t.Fatal(err)
	}
	pruned := reads.Value()
	if pruned == 0 {
		t.Error("pruned top-k term search recorded no node reads")
	}
	if _, err := d.TermSearch([]string{"search", "engine"}, TermSearchOptions{Parallel: 2}); err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter(`tix_queries_total{op="terms"}`).Value(); got != 2 {
		t.Errorf("terms total = %d, want 2", got)
	}
	if reads.Value() == pruned {
		t.Error("parallel term search recorded no node reads")
	}

	if _, err := d.PhraseSearch([]string{"information", "retrieval"}); err != nil {
		t.Fatal(err)
	}
	if got := reg.Histogram(`tix_query_seconds{op="phrase"}`).Count(); got != 1 {
		t.Errorf("phrase latency observations = %d, want 1", got)
	}

	var b strings.Builder
	if err := reg.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), `tix_query_seconds_bucket{op="terms",le="+Inf"} 2`) {
		t.Errorf("exposition missing terms histogram:\n%s", b.String())
	}
}
