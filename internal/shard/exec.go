package shard

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/db"
	"repro/internal/exec"
	"repro/internal/rescache"
	"repro/internal/storage"
	"repro/internal/xmltree"
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

// TermSearch scores every element containing at least one of the terms,
// fanning the TermJoin out across shards, and returns results best-first
// under the exec.RankedBefore contract (see db.TermSearchOptions).
func (s *DB) TermSearch(terms []string, opts db.TermSearchOptions) ([]exec.ScoredNode, error) {
	return s.TermSearchContext(context.Background(), terms, opts)
}

// TermSearchContext is TermSearch with cooperative cancellation and
// resource budgets shared across the shard workers. Each shard runs
// db.SearchTerms over its own snapshot. With TopK set, the limit is pushed
// down — each shard retains its own k best, through the pruned
// TopKTermJoin where its bound holds — and the merger re-thresholds to the
// global k, which is exact because any globally top-k element is in its
// shard's top k.
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
	eff := s.limitsOr(opts.Limits)
	if c, tok, ok := s.queryCache(); ok {
		key := rescache.TermKey(tok, terms, rescache.TermOpts{
			Complex: opts.Complex, TopK: opts.TopK, MinScore: opts.MinScore,
			Weights: opts.Weights, Limits: eff,
		})
		if hit, found := rescache.GetSlice[exec.ScoredNode](c, key); found {
			results = hit
			return results, nil
		}
		// Registered before recoverPanic so a recovered panic reaches err
		// first and poisoned results are never cached.
		defer func() {
			if err == nil {
				rescache.PutSlice(c, key, results)
			}
		}()
	}
	defer recoverPanic(&err)
	cctx, cancel := fanoutCtx(ctx)
	defer cancel()
	guard := exec.NewGuard(cctx, eff)
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

// Method selects the access method RunTermMethod fans out — the paper's
// Table 1–4 columns.
type Method string

// The sharded term access methods.
const (
	MethodTermJoin         Method = "TermJoin"
	MethodEnhancedTermJoin Method = "EnhTermJoin"
	MethodComp1            Method = "Comp1"
	MethodComp2            Method = "Comp2"
	MethodGenMeet          Method = "GenMeet"
)

// RunTermMethod executes one term access method — TermJoin, the Enhanced
// variant, or the Comp1/Comp2/GenMeet baselines — per shard in parallel
// and returns the merged results under the RankedBefore contract, with
// the store traffic summed over the shards. It is the benchmark and
// differential-test entry point; TermSearchContext is the production
// facade.
func (s *DB) RunTermMethod(ctx context.Context, method Method, terms []string, complex bool) (results []exec.ScoredNode, total storage.AccessStats, err error) {
	start := time.Now()
	per := make([][]exec.ScoredNode, len(s.segs))
	stats := make([]storage.AccessStats, len(s.segs))
	defer func() {
		for _, st := range stats {
			total.Add(st)
		}
		s.observe(opTerms, start, len(results), total, err)
	}()
	defer recoverPanic(&err)
	cctx, cancel := fanoutCtx(ctx)
	defer cancel()
	guard := exec.NewGuard(cctx, s.opts.Limits)
	q := exec.TermQuery{Terms: terms, Complex: complex, Scorer: exec.DefaultScorer{}}
	err = s.runShards(opTerms, cancel, func(i int, seg *db.DB) error {
		// Snapshot first, accessor second: the accessor's view of the
		// document table then covers every document the snapshot names,
		// even when an Add lands between the two lines.
		idx := seg.Index()
		acc := guard.NewAccessor(idx.Store())
		var runner interface{ Run(exec.Emit) error }
		switch method {
		case MethodTermJoin:
			runner = &exec.TermJoin{Index: idx, Acc: acc, Query: q, ChildCounts: exec.ChildCountNavigate, Guard: guard}
		case MethodEnhancedTermJoin:
			runner = &exec.TermJoin{Index: idx, Acc: acc, Query: q, ChildCounts: exec.ChildCountIndexed, Guard: guard}
		case MethodComp1:
			runner = &exec.Comp1{Index: idx, Acc: acc, Query: q, Guard: guard}
		case MethodComp2:
			runner = &exec.Comp2{Index: idx, Acc: acc, Query: q, Guard: guard}
		case MethodGenMeet:
			runner = &exec.GenMeet{Index: idx, Acc: acc, Query: q, Guard: guard}
		default:
			return fmt.Errorf("shard: unknown term method %q", method)
		}
		out, rerr := exec.Collect(runner.Run)
		stats[i] = acc.Stats
		if rerr != nil {
			return rerr
		}
		exec.SortRanked(out)
		s.toGlobal(i, out)
		per[i] = out
		return nil
	})
	if err != nil {
		return nil, total, err
	}
	results = mergeRanked(per)
	return results, total, nil
}

// PhraseSearch returns every occurrence of the phrase via per-shard
// PhraseFinders, merged into (document, position) order — the same order
// the monolithic PhraseFinder emits.
func (s *DB) PhraseSearch(phrase []string) ([]exec.PhraseMatch, error) {
	return s.PhraseSearchContext(context.Background(), phrase)
}

// PhraseSearchContext is PhraseSearch with cooperative cancellation and
// the shared default resource limits.
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
	if c, tok, ok := s.queryCache(); ok {
		key := rescache.PhraseKey(tok, phrase, s.opts.Limits)
		if hit, found := rescache.GetSlice[exec.PhraseMatch](c, key); found {
			ms = hit
			return ms, nil
		}
		defer func() {
			if err == nil {
				rescache.PutSlice(c, key, ms)
			}
		}()
	}
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

// TwigRefsContext runs the holistic twig join per shard in parallel and
// returns the deduplicated pattern-root bindings in global document
// order, as db.TwigRef values carrying global document ids.
func (s *DB) TwigRefsContext(ctx context.Context, pattern *exec.TwigNode) (out []db.TwigRef, err error) {
	start := time.Now()
	per := make([][]db.TwigRef, len(s.segs))
	stats := make([]storage.AccessStats, len(s.segs))
	defer func() {
		var total storage.AccessStats
		for _, st := range stats {
			total.Add(st)
		}
		s.observe(opTwig, start, len(out), total, err)
	}()
	defer recoverPanic(&err)
	cctx, cancel := fanoutCtx(ctx)
	defer cancel()
	guard := exec.NewGuard(cctx, s.opts.Limits)
	err = s.runShards(opTwig, cancel, func(i int, seg *db.DB) error {
		// Over the segment's snapshot, so tombstoned documents never match;
		// the id table is read after it and covers every document it names.
		refs, rerr := db.SearchTwig(seg.Index(), pattern, guard, &stats[i])
		if rerr != nil {
			return rerr
		}
		ids := s.globalIDs(i)
		for j := range refs {
			refs[j].Doc = ids[refs[j].Doc]
		}
		per[i] = refs
		return nil
	})
	if err != nil {
		return nil, err
	}
	out = mergeTwigRefs(per)
	return out, nil
}

// TwigSearchContext is TwigRefsContext with the matches materialized as
// subtrees, in global document order — the sharded counterpart of
// db.TwigSearchContext.
func (s *DB) TwigSearchContext(ctx context.Context, pattern *exec.TwigNode) ([]*xmltree.Node, error) {
	refs, err := s.TwigRefsContext(ctx, pattern)
	if err != nil {
		return nil, err
	}
	out := make([]*xmltree.Node, 0, len(refs))
	for _, ref := range refs {
		loc, ok := s.refOf(ref.Doc)
		if !ok {
			continue
		}
		out = append(out, s.segs[loc.shard].Store().Doc(loc.local).TreeNode(ref.Ord))
	}
	return out, nil
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

// evalQuery parses and routes src, evaluates it over the owning segment's
// snapshot under limits, adding the evaluation's store traffic to stats,
// and returns the parsed query with its results in global document ids.
func (s *DB) evalQuery(ctx context.Context, src string, limits exec.Limits, stats *storage.AccessStats) (*xq.Query, []xq.Result, error) {
	q, i, err := s.routeQuery(src)
	if err != nil {
		return nil, nil, err
	}
	results, err := db.EvalQuery(s.segs[i].Index(), q, exec.NewGuard(ctx, limits), stats)
	if err != nil {
		return nil, nil, err
	}
	ids := s.globalIDs(i)
	for j := range results {
		results[j].Doc = ids[results[j].Doc]
	}
	return q, results, nil
}

// Query parses and evaluates an extended-XQuery query against the shard
// owning its documents. Results carry global document ids.
func (s *DB) Query(src string) ([]xq.Result, error) {
	return s.QueryContext(context.Background(), src)
}

// QueryContext is Query with cooperative cancellation and the default
// resource limits.
func (s *DB) QueryContext(ctx context.Context, src string) ([]xq.Result, error) {
	return s.QueryLimited(ctx, src, s.opts.Limits)
}

// QueryLimited is QueryContext with an explicit per-call resource budget.
func (s *DB) QueryLimited(ctx context.Context, src string, limits exec.Limits) (results []xq.Result, err error) {
	start := time.Now()
	var stats storage.AccessStats
	defer func() { s.observe(opQuery, start, len(results), stats, err) }()
	eff := s.limitsOr(limits)
	if c, tok, ok := s.queryCache(); ok {
		key := rescache.QueryKey(tok, src, eff)
		if hit, found := rescache.GetSlice[xq.Result](c, key); found {
			results = hit
			return results, nil
		}
		// Registered before recoverPanic so a recovered panic reaches err
		// first and poisoned results are never cached.
		defer func() {
			if err == nil {
				rescache.PutSlice(c, key, results)
			}
		}()
	}
	defer recoverPanic(&err)
	_, results, err = s.evalQuery(ctx, src, eff, &stats)
	return results, err
}

// QueryRenderedContext evaluates a query and renders each result through
// the query's Return template (or the canonical <result> shape when the
// query has none), under the default resource limits.
func (s *DB) QueryRenderedContext(ctx context.Context, src string) (rendered []string, results []xq.Result, err error) {
	start := time.Now()
	var stats storage.AccessStats
	defer func() { s.observe(opQuery, start, len(results), stats, err) }()
	defer recoverPanic(&err)
	q, results, err := s.evalQuery(ctx, src, s.opts.Limits, &stats)
	if err != nil {
		return nil, nil, err
	}
	rendered = make([]string, len(results))
	for i, r := range results {
		rendered[i] = q.Render(r)
	}
	return rendered, results, nil
}

// Explain renders the physical plan for a query on its owning shard.
func (s *DB) Explain(src string) (plan string, err error) {
	start := time.Now()
	defer func() { s.observe(opExplain, start, 0, storage.AccessStats{}, err) }()
	defer recoverPanic(&err)
	_, i, err := s.routeQuery(src)
	if err != nil {
		return "", err
	}
	return s.segs[i].Explain(src)
}
