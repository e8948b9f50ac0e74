package shard

import (
	"context"
	"fmt"
	"testing"

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
