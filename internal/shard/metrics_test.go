package shard

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/db"
	"repro/internal/metrics"
)

// TestQueryMetricsCountCacheHitsAndErrors: the facade observes every
// /query call, including those answered from the result cache and those
// that fail before reaching a segment (a parse error).
func TestQueryMetricsCountCacheHitsAndErrors(t *testing.T) {
	names, roots := corpusDocs(t, 3, 5)
	reg := metrics.NewRegistry()
	s := New(Options{Shards: 2, CacheBytes: 1 << 20, Metrics: reg})
	defer s.Close()
	for i, name := range names {
		if err := s.LoadTree(name, roots[i]); err != nil {
			t.Fatal(err)
		}
	}
	s.Warm()
	src := queryFor(names[0])
	for i := 0; i < 3; i++ {
		if _, err := s.QueryContext(context.Background(), src); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.QueryContext(context.Background(), "garbage !!"); err == nil {
		t.Fatal("bad query did not error")
	}
	if hits := s.ResultCache().Stats().Hits; hits != 2 {
		t.Fatalf("cache hits = %d, want 2", hits)
	}
	if got := reg.Counter(`tix_queries_total{op="query"}`).Value(); got != 4 {
		t.Errorf("tix_queries_total{op=query} = %d, want 4", got)
	}
	if got := reg.Counter(`tix_query_errors_total{op="query"}`).Value(); got != 1 {
		t.Errorf("tix_query_errors_total{op=query} = %d, want 1", got)
	}
	if got := reg.Histogram(`tix_query_seconds{op="query"}`).Count(); got != 4 {
		t.Errorf("query latency observations = %d, want 4", got)
	}
}

// TestTopKPruningCountersSumOverShards: a pruned /terms search on a live
// corpus records the documents its top-k scored and the blocks it skipped,
// summed over the shard fan-out; a search the exhaustive join answers
// records neither.
func TestTopKPruningCountersSumOverShards(t *testing.T) {
	names, roots := corpusDocs(t, 24, 7)
	reg := metrics.NewRegistry()
	s := New(Options{Shards: 2, Metrics: reg})
	for i, name := range names {
		if err := s.LoadTree(name, roots[i]); err != nil {
			t.Fatal(err)
		}
	}
	s.Warm()
	if err := s.Add("live.xml", `<article><p>ctla ctlb ctla</p></article>`); err != nil {
		t.Fatal(err)
	}
	if err := s.Delete(names[3]); err != nil {
		t.Fatal(err)
	}
	terms := []string{"ctla", "ctlb"}
	opts := db.TermSearchOptions{TopK: 1}
	var want db.SearchStats
	for i := 0; i < 2; i++ {
		if _, err := db.SearchTerms(s.Segment(i).Index(), terms, opts, nil, &want); err != nil {
			t.Fatal(err)
		}
	}
	if want.DocsEvaluated == 0 || want.BlocksSkipped == 0 {
		t.Fatalf("segments evaluated %d documents and skipped %d blocks: the corpus does not exercise pruning", want.DocsEvaluated, want.BlocksSkipped)
	}
	docs := reg.Counter(`tix_topk_docs_evaluated_total{op="terms"}`)
	blocks := reg.Counter(`tix_topk_blocks_skipped_total{op="terms"}`)
	for _, o := range []db.TermSearchOptions{opts, {}} {
		if _, err := s.TermSearchContext(context.Background(), terms, o); err != nil {
			t.Fatal(err)
		}
		if docs.Value() != want.DocsEvaluated || blocks.Value() != want.BlocksSkipped {
			t.Errorf("TopK=%d: counters = %d documents, %d blocks; want the segments' %d, %d",
				o.TopK, docs.Value(), blocks.Value(), want.DocsEvaluated, want.BlocksSkipped)
		}
	}
}

// TestGenerationGaugeMatchesFacade: tix_index_generation publishes the
// facade's Generation() — the sum over segments — not the generation of
// whichever segment mutated last.
func TestGenerationGaugeMatchesFacade(t *testing.T) {
	reg := metrics.NewRegistry()
	s := New(Options{Shards: 2, Metrics: reg})
	for i := 0; i < 6; i++ {
		if err := s.Add(fmt.Sprintf("d%d.xml", i), fmt.Sprintf(`<d><t>w%d</t></d>`, i)); err != nil {
			t.Fatal(err)
		}
	}
	if got := s.Generation(); got != 6 {
		t.Fatalf("Generation() = %d after 6 adds, want 6", got)
	}
	if got := reg.Gauge("tix_index_generation").Value(); got != 6 {
		t.Errorf("tix_index_generation = %d, want Generation() = 6", got)
	}
	if got := reg.Counter(`tix_ingest_total{op="add"}`).Value(); got != 6 {
		t.Errorf("tix_ingest_total{op=add} = %d, want 6", got)
	}
}
