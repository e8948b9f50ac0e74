package shard

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/db"
	"repro/internal/exec"
	"repro/internal/storage"
	"repro/internal/xq"
)

// shardFailure is the first worker failure of one fan-out, latched so
// every caller observes the same root cause: when one shard trips a fault
// the fan-out cancels the rest, and their ErrCanceled follow-on errors
// must not mask the fault that started it.
type shardFailure struct {
	shard int
	err   error
}

// runShards executes fn once per segment on its own goroutine and waits
// for all of them. A worker panic (an injected storage fault, an operator
// bug) is contained and classified; the first failure latches and, via
// cancel, aborts the remaining workers cooperatively through the shared
// guard. Per-worker latency and failures are recorded under the op label.
func (s *DB) runShards(op string, cancel context.CancelFunc, fn func(i int, seg *db.DB) error) error {
	reg := s.MetricsRegistry()
	var wg sync.WaitGroup
	var first atomic.Pointer[shardFailure]
	for i := range s.segs {
		wg.Add(1)
		go func(i int, seg *db.DB) {
			defer wg.Done()
			start := time.Now()
			var err error
			defer func() {
				if r := recover(); r != nil {
					err = panicError(r)
				}
				lbl := fmt.Sprintf(`{op=%q,shard="%d"}`, op, i)
				reg.Histogram("tix_shard_seconds" + lbl).Observe(time.Since(start).Seconds())
				if err != nil {
					reg.Counter("tix_shard_errors_total" + lbl).Inc()
					if first.CompareAndSwap(nil, &shardFailure{shard: i, err: err}) && cancel != nil {
						cancel()
					}
				}
			}()
			err = fn(i, seg)
		}(i, s.segs[i])
	}
	wg.Wait()
	if f := first.Load(); f != nil {
		return fmt.Errorf("shard: shard %d: %w", f.shard, f.err)
	}
	return nil
}

// fanoutCtx derives the context a fan-out's shared guard watches: always
// cancelable, so the first worker failure stops the other shards within
// one check interval.
func fanoutCtx(ctx context.Context) (context.Context, context.CancelFunc) {
	if ctx == nil {
		ctx = context.Background()
	}
	return context.WithCancel(ctx)
}

// TermSearchContext scores every element containing at least one of the
// terms and returns results best-first under the exec.RankedBefore
// contract (see db.TermSearchOptions), with cooperative cancellation and
// the default resource budget (SetLimits) shared across the shard
// workers. It is the facade's one term search: each shard runs
// db.SearchTerms over its own snapshot. With TopK set, the limit is pushed
// down — each shard retains its own k best through the pruned
// TopKTermJoin — and the merger re-thresholds to the global k, which is
// exact because any globally top-k element is in its shard's top k.
func (s *DB) TermSearchContext(ctx context.Context, terms []string, opts db.TermSearchOptions) (results []exec.ScoredNode, err error) {
	start := time.Now()
	per := make([][]exec.ScoredNode, len(s.segs))
	stats := make([]db.SearchStats, len(s.segs))
	defer func() {
		var total db.SearchStats
		for _, st := range stats {
			total.Add(st)
		}
		s.observe(opTerms, start, len(results), total.Access, err)
		if err == nil {
			reg := s.MetricsRegistry()
			reg.Counter(`tix_topk_docs_evaluated_total{op="terms"}`).Add(total.DocsEvaluated)
			reg.Counter(`tix_topk_blocks_skipped_total{op="terms"}`).Add(total.BlocksSkipped)
		}
	}()
	defer recoverPanic(&err)
	cctx, cancel := fanoutCtx(ctx)
	defer cancel()
	guard := exec.NewGuard(cctx, s.opts.Limits)
	err = s.runShards(opTerms, cancel, func(i int, seg *db.DB) error {
		out, rerr := db.SearchTerms(seg.Index(), terms, opts, guard, &stats[i])
		if rerr != nil {
			return rerr
		}
		s.toGlobal(i, out)
		per[i] = out
		return nil
	})
	if err != nil {
		return nil, err
	}
	results = mergeRanked(per)
	if opts.TopK > 0 && len(results) > opts.TopK {
		results = results[:opts.TopK]
	}
	return results, nil
}

// PhraseSearchContext returns every occurrence of the phrase via per-shard
// PhraseFinders, merged into (document, position) order — the same order
// one PhraseFinder over the whole corpus emits — with cooperative
// cancellation and the shared default resource limits.
func (s *DB) PhraseSearchContext(ctx context.Context, phrase []string) (ms []exec.PhraseMatch, err error) {
	start := time.Now()
	per := make([][]exec.PhraseMatch, len(s.segs))
	stats := make([]storage.AccessStats, len(s.segs))
	defer func() {
		var total storage.AccessStats
		for _, st := range stats {
			total.Add(st)
		}
		s.observe(opPhrase, start, len(ms), total, err)
	}()
	defer recoverPanic(&err)
	cctx, cancel := fanoutCtx(ctx)
	defer cancel()
	guard := exec.NewGuard(cctx, s.opts.Limits)
	err = s.runShards(opPhrase, cancel, func(i int, seg *db.DB) error {
		pf := &exec.PhraseFinder{Index: seg.Index(), Phrase: phrase, Guard: guard}
		out, rerr := exec.CollectPhrase(pf.Run)
		stats[i] = pf.AccessStats()
		if rerr != nil {
			return rerr
		}
		ids := s.globalIDs(i)
		for j := range out {
			out[j].Doc = ids[out[j].Doc]
		}
		per[i] = out
		return nil
	})
	if err != nil {
		return nil, err
	}
	ms = mergePhrase(per)
	return ms, nil
}

// ErrCrossShard reports an extended-XQuery query whose document() clauses
// resolve to more than one shard; the join shapes evaluate inside a
// single store, so such queries must be routed to a co-resident layout
// (or evaluated unsharded).
var ErrCrossShard = fmt.Errorf("shard: query references documents on different shards")

// routeQuery parses src and returns the query with the shard owning every
// document it references.
func (s *DB) routeQuery(src string) (*xq.Query, int, error) {
	q, err := xq.Parse(src)
	if err != nil {
		return nil, 0, err
	}
	shard := -1
	for _, f := range q.Fors {
		name := f.Path.Document
		if name == "" {
			continue
		}
		owner, ok := s.ShardOf(name)
		if !ok {
			return nil, 0, fmt.Errorf("shard: document %q not loaded", name)
		}
		if shard == -1 {
			shard = owner
		} else if owner != shard {
			return nil, 0, ErrCrossShard
		}
	}
	if shard == -1 {
		shard = 0
	}
	return q, shard, nil
}

// QueryContext parses and evaluates an extended-XQuery query against the
// shard owning its documents, under ctx and the default resource limits.
// Results carry global document ids.
func (s *DB) QueryContext(ctx context.Context, src string) (results []xq.Result, err error) {
	start := time.Now()
	var stats storage.AccessStats
	defer func() { s.observe(opQuery, start, len(results), stats, err) }()
	defer recoverPanic(&err)
	q, i, err := s.routeQuery(src)
	if err != nil {
		return nil, err
	}
	results, err = s.segs[i].Eval(q, exec.NewGuard(ctx, s.opts.Limits), &stats)
	if err != nil {
		return nil, err
	}
	ids := s.globalIDs(i)
	for j := range results {
		results[j].Doc = ids[results[j].Doc]
	}
	return results, nil
}

// Explain renders the physical plan for a query without running it: the
// routed query compiled against its owning segment's snapshot.
func (s *DB) Explain(src string) (plan string, err error) {
	start := time.Now()
	defer func() { s.observe(opExplain, start, 0, storage.AccessStats{}, err) }()
	defer recoverPanic(&err)
	q, i, err := s.routeQuery(src)
	if err != nil {
		return "", err
	}
	p, err := s.segs[i].Compile(q)
	if err != nil {
		return "", err
	}
	return p.String(), nil
}
