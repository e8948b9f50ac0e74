package shard

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/exec"
	"repro/internal/storage"
)

// Per-operation metric families recorded by the facade. Every engine entry
// point (query, explain, terms, phrase) records under its op label,
// routing or parse errors included. Reply-cache hits are answered by the
// server and never reach the facade, so they are not counted here; the
// HTTP middleware's tix_http_requests_total counts every request:
//
//	tix_query_seconds{op=...}            latency histogram (log-scale buckets)
//	tix_queries_total{op=...}            evaluations started
//	tix_query_errors_total{op=...}       evaluations that returned an error
//	tix_query_results_total{op=...}      results returned
//	tix_access_node_reads_total{op=...}  store node-record fetches
//	tix_access_page_reads_total{op=...}  distinct-page transitions
//	tix_access_text_reads_total{op=...}  text payload fetches
//	tix_access_nav_steps_total{op=...}   child/sibling navigation steps
//
// Failed evaluations are additionally classified by cause:
//
//	tix_query_timeouts_total{op=...}        deadline exceeded (exec.ErrDeadlineExceeded)
//	tix_query_canceled_total{op=...}        context canceled (exec.ErrCanceled)
//	tix_query_limit_exceeded_total{op=...}  resource budget exhausted (exec.ErrLimitExceeded)
//	tix_query_faults_total{op=...}          storage faults (storage.ErrInjectedFault)
//	tix_query_panics_total{op=...}          panics recovered at the facade
//
// The access-stat counters are the paper's cost accounting (the numbers
// behind Tables 1–5) surfaced as a runtime feature: a scrape after a
// production query shows *why* it was expensive, not only that it was.
// Term searches answered by the pruned top-k also record, summed over the
// shard fan-out, whether it pruned:
//
//	tix_topk_docs_evaluated_total{op="terms"}  documents the top-k scored
//	tix_topk_blocks_skipped_total{op="terms"}  blocks its sweep skipped undecoded
//
// Fan-out ops record the workers' combined access stats, plus per-shard
// worker instrumentation:
//
//	tix_shard_seconds{op=...,shard=...}       worker latency histogram
//	tix_shard_errors_total{op=...,shard=...}  worker failures
//	tix_shard_documents{shard=...}            documents resident per shard
//
// Routed mutations (Add/Update/Delete) record:
//
//	tix_ingest_seconds{op=add|update|delete}  latency histogram
//	tix_ingest_total{op=...}                  mutations attempted
//	tix_ingest_errors_total{op=...}           mutations that failed
//	tix_index_generation                      the facade's Generation()
const (
	opQuery   = "query"
	opExplain = "explain"
	opTerms   = "terms"
	opPhrase  = "phrase"

	opAdd    = "add"
	opUpdate = "update"
	opDelete = "delete"
)

// ErrPanic marks errors produced by recovering a panic at the shard
// facade or worker boundary; the fleet layer treats them as replica
// faults eligible for retry on a healthy twin.
var ErrPanic = errors.New("shard: recovered panic")

// recoverPanic converts a panic inside evaluation, merge or routing into a
// returned error, mirroring db.recoverPanic. Deferred after the metrics
// defer (defers run LIFO, so the observation sees the recovered error).
func recoverPanic(errp *error) {
	r := recover()
	if r == nil {
		return
	}
	*errp = panicError(r)
}

// panicError classifies a recovered panic value: injected storage faults
// keep their typed identity, anything else becomes an ErrPanic.
func panicError(r interface{}) error {
	if ferr, ok := r.(error); ok && errors.Is(ferr, storage.ErrInjectedFault) {
		return fmt.Errorf("shard: storage fault: %w", ferr)
	}
	return fmt.Errorf("%w: %v", ErrPanic, r)
}

// observe records one operation at the facade: latency, outcome, result
// count, and the evaluation's store-access statistics.
func (s *DB) observe(op string, start time.Time, results int, stats storage.AccessStats, err error) {
	reg := s.MetricsRegistry()
	lbl := `{op="` + op + `"}`
	reg.Histogram("tix_query_seconds" + lbl).Observe(time.Since(start).Seconds())
	reg.Counter("tix_queries_total" + lbl).Inc()
	if err != nil {
		reg.Counter("tix_query_errors_total" + lbl).Inc()
		switch {
		case errors.Is(err, exec.ErrDeadlineExceeded):
			reg.Counter("tix_query_timeouts_total" + lbl).Inc()
		case errors.Is(err, exec.ErrCanceled):
			reg.Counter("tix_query_canceled_total" + lbl).Inc()
		case errors.Is(err, exec.ErrLimitExceeded):
			reg.Counter("tix_query_limit_exceeded_total" + lbl).Inc()
		case errors.Is(err, storage.ErrInjectedFault):
			reg.Counter("tix_query_faults_total" + lbl).Inc()
		case errors.Is(err, ErrPanic):
			reg.Counter("tix_query_panics_total" + lbl).Inc()
		}
		return
	}
	reg.Counter("tix_query_results_total" + lbl).Add(int64(results))
	reg.Counter("tix_access_node_reads_total" + lbl).Add(stats.NodeReads)
	reg.Counter("tix_access_page_reads_total" + lbl).Add(stats.PageReads)
	reg.Counter("tix_access_text_reads_total" + lbl).Add(stats.TextReads)
	reg.Counter("tix_access_nav_steps_total" + lbl).Add(stats.NavSteps)
}

// observeIngest records one routed mutation's latency and outcome, and
// publishes the facade generation (the sum over segments, not any one
// segment's own counter).
func (s *DB) observeIngest(op string, start time.Time, err error) {
	reg := s.MetricsRegistry()
	lbl := `{op="` + op + `"}`
	reg.Histogram("tix_ingest_seconds" + lbl).Observe(time.Since(start).Seconds())
	reg.Counter("tix_ingest_total" + lbl).Inc()
	if err != nil {
		reg.Counter("tix_ingest_errors_total" + lbl).Inc()
	}
	reg.Gauge("tix_index_generation").Set(int64(s.Generation()))
}
