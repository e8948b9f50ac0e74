package db_test

import (
	"context"
	"errors"
	"strings"
	"testing"

	"repro/internal/db"
	"repro/internal/fixture"
	"repro/internal/metrics"
	"repro/internal/shard"
)

// A segment records no metrics: the serving facade (internal/shard)
// observes every operation. These tests drive segments through the facade,
// with one shard for the single-store case.

// newFacade loads the paper's Figure 1 database into a facade of n shards
// (round-robin, so two shards hold one document each) recording into an
// isolated registry, so tests can assert on exact counter values.
func newFacade(t *testing.T, n int) (*shard.DB, *metrics.Registry) {
	t.Helper()
	reg := metrics.NewRegistry()
	s := shard.New(shard.Options{Shards: n, Strategy: shard.RoundRobin, Stemming: true, Metrics: reg})
	if err := s.LoadString("articles.xml", fixture.ArticlesXML); err != nil {
		t.Fatal(err)
	}
	if err := s.LoadString("reviews.xml", fixture.ReviewsXML); err != nil {
		t.Fatal(err)
	}
	return s, reg
}

func TestQueryRecordsMetrics(t *testing.T) {
	d, reg := newFacade(t, 1)
	_, err := d.QueryContext(context.Background(), `
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
	if _, err := d.QueryContext(context.Background(), "garbage !!"); err == nil {
		t.Fatal("bad query did not error")
	}
	if got := reg.Counter(`tix_query_errors_total{op="query"}`).Value(); got != 1 {
		t.Errorf("query_errors_total = %d, want 1", got)
	}
}

func TestTermAndPhraseSearchRecordMetrics(t *testing.T) {
	d, reg := newFacade(t, 1)
	reads := reg.Counter(`tix_access_node_reads_total{op="terms"}`)
	// A top-k search runs the pruned TopKTermJoin; a search without one
	// runs the exhaustive TermJoin. Both must surface their access stats.
	if _, err := d.TermSearchContext(context.Background(), []string{"search", "engine"}, db.TermSearchOptions{TopK: 5}); err != nil {
		t.Fatal(err)
	}
	pruned := reads.Value()
	if pruned == 0 {
		t.Error("pruned top-k term search recorded no node reads")
	}
	if _, err := d.TermSearchContext(context.Background(), []string{"search", "engine"}, db.TermSearchOptions{}); err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter(`tix_queries_total{op="terms"}`).Value(); got != 2 {
		t.Errorf("terms total = %d, want 2", got)
	}
	if reads.Value() == pruned {
		t.Error("exhaustive term search recorded no node reads")
	}

	if _, err := d.PhraseSearchContext(context.Background(), []string{"information", "retrieval"}); err != nil {
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

// TestTermSearchParallelMatchesSequential: the facade's parallel fan-out
// (two shard workers, one document each) returns exactly what one segment
// scanning sequentially returns.
func TestTermSearchParallelMatchesSequential(t *testing.T) {
	par, _ := newFacade(t, 2)
	seqDB := db.New(db.Options{Stemming: true})
	if err := seqDB.LoadString("articles.xml", fixture.ArticlesXML); err != nil {
		t.Fatal(err)
	}
	if err := seqDB.LoadString("reviews.xml", fixture.ReviewsXML); err != nil {
		t.Fatal(err)
	}
	for _, opts := range []db.TermSearchOptions{{Complex: true}, {Complex: true, TopK: 4}} {
		seq, err := seqDB.TermSearchContext(context.Background(), []string{"search", "retrieval"}, opts)
		if err != nil {
			t.Fatal(err)
		}
		got, err := par.TermSearchContext(context.Background(), []string{"search", "retrieval"}, opts)
		if err != nil {
			t.Fatal(err)
		}
		if len(seq) != len(got) {
			t.Fatalf("%+v: parallel %d vs sequential %d", opts, len(got), len(seq))
		}
		for i := range seq {
			if seq[i] != got[i] {
				t.Errorf("%+v: result %d differs: %+v vs %+v", opts, i, seq[i], got[i])
			}
		}
	}
}

func TestMutateSentinelsAndMetrics(t *testing.T) {
	reg := metrics.NewRegistry()
	d := shard.New(shard.Options{Shards: 1, Metrics: reg})
	seg := d.Segment(0)
	if got := d.Generation(); got != 0 {
		t.Fatalf("fresh database generation = %d, want 0", got)
	}

	if err := d.Add("a.xml", `<d><t>alpha beta</t></d>`); err != nil {
		t.Fatal(err)
	}
	if err := d.Add("a.xml", `<d><t>dup</t></d>`); !errors.Is(err, db.ErrDocumentExists) {
		t.Fatalf("duplicate Add err = %v, want ErrDocumentExists", err)
	}
	if err := d.Update("missing.xml", `<d/>`); !errors.Is(err, db.ErrDocumentNotFound) {
		t.Fatalf("Update of unknown doc err = %v, want ErrDocumentNotFound", err)
	}
	if err := d.Delete("missing.xml"); !errors.Is(err, db.ErrDocumentNotFound) {
		t.Fatalf("Delete of unknown doc err = %v, want ErrDocumentNotFound", err)
	}
	if err := d.Add("bad.xml", `<d><open`); err == nil {
		t.Fatal("Add of malformed XML succeeded")
	}

	// Update tombstones the old segment id and allocates a fresh one.
	oldID := seg.Store().DocByName("a.xml").ID
	if err := d.Update("a.xml", `<d><t>gamma</t></d>`); err != nil {
		t.Fatal(err)
	}
	newID := seg.Store().DocByName("a.xml").ID
	if newID == oldID {
		t.Fatalf("Update reused document id %d", oldID)
	}
	if !seg.IsDeleted(oldID) {
		t.Fatalf("old id %d not tombstoned after Update", oldID)
	}
	if seg.IsDeleted(newID) {
		t.Fatalf("fresh id %d reported deleted", newID)
	}
	if res, err := d.TermSearchContext(context.Background(), []string{"alpha"}, db.TermSearchOptions{}); err != nil || len(res) != 0 {
		t.Fatalf("old content after Update: %v, %v", res, err)
	}
	if res, err := d.TermSearchContext(context.Background(), []string{"gamma"}, db.TermSearchOptions{}); err != nil || len(res) == 0 {
		t.Fatalf("new content missing after Update: %v, %v", res, err)
	}

	gen := d.Generation()
	if gen == 0 {
		t.Fatal("mutations did not advance the generation")
	}
	if err := d.Delete("a.xml"); err != nil {
		t.Fatal(err)
	}
	if d.Generation() <= gen {
		t.Fatal("Delete did not advance the generation")
	}
	if got, want := reg.Gauge("tix_index_generation").Value(), int64(d.Generation()); got != want {
		t.Errorf("tix_index_generation = %d, want Generation() = %d", got, want)
	}
	if got := d.DocumentCount(); got != 0 {
		t.Fatalf("DocumentCount = %d after deleting everything, want 0", got)
	}

	// CompactNow folds the (now empty) corpus back to a flat index.
	d.CompactNow()
	d.WaitCompaction()
	if res, err := d.TermSearchContext(context.Background(), []string{"gamma"}, db.TermSearchOptions{}); err != nil || len(res) != 0 {
		t.Fatalf("deleted content after compaction: %v, %v", res, err)
	}

	// Per-op counters saw every attempt, successful or not.
	wantTotals := map[string]int64{"add": 3, "update": 2, "delete": 2}
	wantErrs := map[string]int64{"add": 2, "update": 1, "delete": 1}
	for _, op := range []string{"add", "update", "delete"} {
		lbl := `{op="` + op + `"}`
		if got := reg.Counter("tix_ingest_total" + lbl).Value(); got != wantTotals[op] {
			t.Errorf("tix_ingest_total%s = %d, want %d", lbl, got, wantTotals[op])
		}
		if got := reg.Counter("tix_ingest_errors_total" + lbl).Value(); got != wantErrs[op] {
			t.Errorf("tix_ingest_errors_total%s = %d, want %d", lbl, got, wantErrs[op])
		}
	}
}
