// Package db is one single-store segment of the reproduction's database —
// the stand-in for the Timber system the paper ran on. A segment owns a
// node store, its tokenizer, the live inverted index, document mutation
// and the pieces of it a snapshot embeds (persist.go), and renders result
// labels. The free functions EvalQuery and SearchTerms evaluate the
// paper's query families over one index snapshot.
//
// Queries are served one layer up, by the sharded facade (internal/shard),
// which runs those free functions over every segment and owns the result
// cache, per-operation metrics, global document numbering and the
// snapshot file. One shard is the single-store case. A segment
// records no metrics and caches nothing.
package db

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"

	"repro/internal/exec"
	"repro/internal/index"
	"repro/internal/scoring"
	"repro/internal/storage"
	"repro/internal/tokenize"
	"repro/internal/xmltree"
	"repro/internal/xq"
)

// DB is one database segment. Queries may run concurrently with the
// document mutation API (Add/Update/Delete): readers work over immutable
// index snapshots, writers are serialized by the segment's mutation lock.
type DB struct {
	store *storage.Store
	tok   *tokenize.Tokenizer
	opts  Options

	mu   sync.Mutex                 // serializes mutations and live-index creation
	live atomic.Pointer[index.Live] // set under mu on first Index()/Warm()/mutation; read without it
}

// Options configures a database.
type Options struct {
	// Stemming enables the light plural-stripping stemmer, which the
	// paper's worked examples assume (Figures 5–8 score "search engines"
	// as an occurrence of "search engine").
	Stemming bool
	// Stopwords, when non-empty, are dropped from the index (they still
	// consume word offsets so phrase adjacency is preserved).
	Stopwords []string
	// Limits is the default per-query resource budget (wall-clock
	// timeout, result cap, store-access cap) applied by every Context
	// entry point. The zero value means unlimited. A per-call budget
	// (TermSearchOptions.Limits) takes precedence.
	Limits exec.Limits
	// Ingest tunes the live-index LSM behaviour (memtable seal size,
	// segment fold bound, background compaction). The zero value selects
	// the defaults; see index.LiveConfig.
	Ingest index.LiveConfig
}

// ErrPanic marks errors produced by recovering a panic at a segment entry
// point; the fleet layer treats them as replica faults eligible for retry
// on a healthy twin.
var ErrPanic = errors.New("db: recovered panic")

// recoverPanic converts a panic inside the evaluation engine into a
// returned error, so injected storage faults and operator bugs degrade to
// errors instead of crashing the process. Deferred at every segment entry
// point.
func recoverPanic(errp *error) {
	r := recover()
	if r == nil {
		return
	}
	if ferr, ok := r.(error); ok && errors.Is(ferr, storage.ErrInjectedFault) {
		*errp = fmt.Errorf("db: storage fault: %w", ferr)
		return
	}
	*errp = fmt.Errorf("%w: %v", ErrPanic, r)
}

// SetLimits replaces the database's default per-query resource budget
// (applied by every Context entry point when no per-call budget is given).
func (d *DB) SetLimits(l exec.Limits) { d.opts.Limits = l }

// limitsOr returns the per-call budget when set, else the database default.
func (d *DB) limitsOr(limits exec.Limits) exec.Limits {
	if limits == (exec.Limits{}) {
		return d.opts.Limits
	}
	return limits
}

// New creates an empty database.
func New(opts Options) *DB {
	var tok *tokenize.Tokenizer
	switch {
	case len(opts.Stopwords) > 0:
		tok = tokenize.NewWithStopwords(opts.Stopwords)
	case opts.Stemming:
		tok = tokenize.NewStemming()
	default:
		tok = tokenize.New()
	}
	return &DB{store: storage.NewStore(), tok: tok, opts: opts}
}

// Store exposes the underlying node store.
func (d *DB) Store() *storage.Store { return d.store }

// DocumentCount returns the number of live (non-deleted) documents
// without forcing index construction (the cheap health-probe counterpart
// of Stats).
func (d *DB) DocumentCount() int {
	l := d.live.Load()
	n := d.store.NumDocs()
	if l != nil {
		n -= l.DeadCount()
	}
	return n
}

// Warm forces construction of every lazily-built structure (today: the
// inverted index), so that concurrent read-only use afterwards never
// triggers a build. The server and the sharded facade call it before
// accepting traffic.
func (d *DB) Warm() { d.Index() }

// Tokenizer exposes the tokenizer documents are indexed with.
func (d *DB) Tokenizer() *tokenize.Tokenizer { return d.tok }

// LoadTree loads an already-parsed tree under the given document name.
// Before the index is first built this is a plain store append (bulk
// loading stays cheap: one index build at the end); once a live index
// exists the document is additionally ingested into it incrementally.
func (d *DB) LoadTree(name string, root *xmltree.Node) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	id, err := d.store.AddTree(name, root)
	if err != nil {
		return err
	}
	if l := d.live.Load(); l != nil {
		if ierr := l.IndexDoc(d.store.Doc(id)); ierr != nil {
			return fmt.Errorf("db: index %s: %w", name, ierr)
		}
	}
	return nil
}

// LoadString parses and loads an XML document.
func (d *DB) LoadString(name, src string) error {
	root, err := xmltree.ParseString(src)
	if err != nil {
		return fmt.Errorf("db: load %s: %w", name, err)
	}
	return d.LoadTree(name, root)
}

// LoadReader parses and loads an XML document from r.
func (d *DB) LoadReader(name string, r io.Reader) error {
	root, err := xmltree.Parse(r)
	if err != nil {
		return fmt.Errorf("db: load %s: %w", name, err)
	}
	return d.LoadTree(name, root)
}

// LoadFile parses and loads an XML file; the document name is the file's
// base name.
func (d *DB) LoadFile(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return fmt.Errorf("db: %w", err)
	}
	defer f.Close()
	return d.LoadReader(filepath.Base(path), f)
}

// Index returns an immutable snapshot of the inverted index, building the
// live index on first use after a load. Snapshots are cached per mutation
// generation: with no writes in flight repeated calls return the same
// *index.Index, and concurrent queries over one snapshot see a frozen,
// consistent corpus.
func (d *DB) Index() *index.Index {
	return d.liveIndex().Snapshot()
}

// liveIndex returns the live (mutable) index, creating it over the
// store's current contents on first use. Once it exists it is loaded
// without the mutation lock, so reads never wait on a write in flight;
// only the first build locks. An invariant violation during the initial
// build panics, exactly as index.Build does; the facade entry points
// recover it into a classified error.
func (d *DB) liveIndex() *index.Live {
	if l := d.live.Load(); l != nil {
		return l
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.liveLocked()
}

func (d *DB) liveLocked() *index.Live {
	if l := d.live.Load(); l != nil {
		return l
	}
	l, err := index.NewLive(d.store, d.tok, d.opts.Ingest)
	if err != nil {
		panic(err)
	}
	d.live.Store(l)
	return l
}

// adoptIndex installs an already-restored flat index as the live base
// segment (the persistence load path).
func (d *DB) adoptIndex(idx *index.Index) {
	d.mu.Lock()
	d.live.Store(index.LiveFromIndex(idx, d.opts.Ingest))
	d.mu.Unlock()
}

// Stats summarizes the database contents.
type Stats struct {
	Documents   int
	Nodes       int
	Elements    int
	Terms       int
	Occurrences int64
}

// Stats returns summary statistics (forces index construction). The
// numbers describe the index snapshot's visible corpus: documents hidden
// behind tombstones are excluded.
func (d *DB) Stats() Stats {
	idx := d.Index()
	st := Stats{
		Terms:       idx.NumTerms(),
		Occurrences: idx.TotalOccurrences(),
	}
	for _, doc := range idx.Docs() {
		st.Documents++
		st.Nodes += len(doc.Nodes)
		st.Elements += len(doc.Elements())
	}
	return st
}

// QueryContext parses and evaluates an extended-XQuery query (the Sec. 4
// dialect) over this segment alone, under ctx and the segment's default
// resource limits. Queries are served through the facade (internal/shard),
// which runs EvalQuery; this method stays only because the benchmark
// module prices one segment through it.
func (d *DB) QueryContext(ctx context.Context, src string) (results []xq.Result, err error) {
	defer recoverPanic(&err)
	q, err := xq.Parse(src)
	if err != nil {
		return nil, err
	}
	return EvalQuery(d.Index(), q, exec.NewGuard(ctx, d.opts.Limits), nil)
}

// EvalQuery evaluates a parsed query over an index snapshot under guard,
// adding the evaluation's store traffic to stats when it is non-nil. The
// engine reads the snapshot's own store, so every document the snapshot
// names is visible to the evaluation.
func EvalQuery(idx *index.Index, q *xq.Query, guard *exec.Guard, stats *storage.AccessStats) ([]xq.Result, error) {
	e := &xq.Engine{Index: idx, Stats: stats, Guard: guard}
	return e.Eval(q)
}

// TermSearchOptions configures a term search (SearchTerms and the
// facade's TermSearchContext).
type TermSearchOptions struct {
	// Complex selects the complex scoring function of Sec. 6.1.
	Complex bool
	// TopK limits results to the k best scores (0 = all).
	TopK int
	// MinScore drops elements whose score is not strictly greater than
	// the given value (the Threshold operator's V condition; 0 = keep
	// all). Applied before TopK, so the k results are the k best above
	// the threshold.
	MinScore float64
	// Weights per term (defaults to 1 each).
	Weights []float64
	// Limits is the per-call resource budget; the zero value falls back
	// to the database's default (Options.Limits).
	Limits exec.Limits
}

// TermSearchContext runs SearchTerms over this segment alone, under ctx
// and the per-call budget (or the segment's default). Term searches are
// served through the facade (internal/shard); this method stays only
// because the benchmark module prices one segment through it.
func (d *DB) TermSearchContext(ctx context.Context, terms []string, opts TermSearchOptions) (results []exec.ScoredNode, err error) {
	defer recoverPanic(&err)
	return SearchTerms(d.Index(), terms, opts, exec.NewGuard(ctx, d.limitsOr(opts.Limits)), nil)
}

// SearchStats is what a term search cost: its store traffic and, when the
// pruned top-k answered it, the documents that top-k scored and the blocks
// it left in intervals it never opened.
type SearchStats struct {
	Access        storage.AccessStats
	DocsEvaluated int64
	BlocksSkipped int64
}

// Add accumulates o into s.
func (s *SearchStats) Add(o SearchStats) {
	s.Access.Add(o.Access)
	s.DocsEvaluated += o.DocsEvaluated
	s.BlocksSkipped += o.BlocksSkipped
}

// SearchTerms evaluates one term search over an index snapshot under
// guard and returns the results best-first under exec.RankedBefore,
// adding the evaluation's cost to stats when it is non-nil (on failure
// too). It is the term-search evaluation of one segment.
//
// There is one rule. A top-k search with non-negative weights runs the
// pruned TopKTermJoin — best-first block-max, over flat block lists and a
// live snapshot's merged lists alike — and applies MinScore to its k
// results, which is exact because the elements above a threshold are a
// prefix of the ranking. Anything else (no top-k, or a negative or NaN
// weight, for which the pruning bound does not hold) runs the exhaustive
// TermJoin, feeding a TopK when one is asked for. Every path returns the
// same elements. Child counts come from navigation; the paper's Enhanced
// TermJoin stays reachable through the benchmark entry points
// (shard.RunTermMethod, internal/bench).
func SearchTerms(idx *index.Index, terms []string, opts TermSearchOptions, guard *exec.Guard, stats *SearchStats) ([]exec.ScoredNode, error) {
	if stats == nil {
		stats = new(SearchStats)
	}
	q := exec.TermQuery{
		Terms:   terms,
		Complex: opts.Complex,
		Scorer: exec.DefaultScorer{
			SimpleFn:  scoring.SimpleScorer{Weights: opts.Weights},
			ComplexFn: scoring.ComplexScorer{Weights: opts.Weights},
		},
	}
	if opts.TopK > 0 && nonNegative(opts.Weights) {
		tk := &exec.TopKTermJoin{Index: idx, Query: q, K: opts.TopK, ChildCounts: exec.ChildCountNavigate, Guard: guard}
		results, err := tk.Run()
		stats.Add(SearchStats{Access: tk.AccessStats(), DocsEvaluated: int64(tk.DocsEvaluated), BlocksSkipped: int64(tk.BlocksSkipped)})
		if err != nil {
			return nil, err
		}
		return exec.AboveMinScore(results, opts.MinScore), nil
	}
	// The accessor is made after the caller took idx, so its view of the
	// document table covers every document idx can name.
	tj := &exec.TermJoin{Index: idx, Acc: guard.NewAccessor(idx.Store()), Query: q, ChildCounts: exec.ChildCountNavigate, Guard: guard}
	run := func(emit exec.Emit) error {
		if opts.MinScore > 0 {
			emit = exec.FilterMinScore(opts.MinScore, emit)
		}
		return tj.Run(emit)
	}
	defer addStats(&stats.Access, tj)
	if opts.TopK > 0 {
		tk := exec.NewTopK(opts.TopK)
		if err := run(tk.Emit()); err != nil {
			return nil, err
		}
		return tk.Results(), nil
	}
	out, err := exec.Collect(run)
	if err != nil {
		return nil, err
	}
	exec.SortRanked(out)
	return out, nil
}

// addStats adds an operator's store traffic to an optional stats sink.
func addStats(stats *storage.AccessStats, op exec.AccessReporter) {
	if stats != nil {
		stats.Add(op.AccessStats())
	}
}

// nonNegative reports whether every weight is ≥ 0 (NaN is not).
func nonNegative(weights []float64) bool {
	for _, w := range weights {
		if !(w >= 0) {
			return false
		}
	}
	return true
}

// PhraseSearchContext returns every occurrence of the phrase in this
// segment via PhraseFinder, under ctx and the segment's default limits.
// Phrase searches are served through the facade (internal/shard); this
// method stays only because the benchmark module prices one segment
// through it.
func (d *DB) PhraseSearchContext(ctx context.Context, phrase []string) (ms []exec.PhraseMatch, err error) {
	defer recoverPanic(&err)
	pf := &exec.PhraseFinder{Index: d.Index(), Phrase: phrase, Guard: exec.NewGuard(ctx, d.opts.Limits)}
	return exec.CollectPhrase(pf.Run)
}

// Render appends each node's label to dst and returns the extended slice:
// an element's tag name, or a text node's text. The whole batch reads one
// view of the store (storage.LabelView), with no per-node lock or tree
// walk. An unknown document or an ordinal outside its document renders
// as "".
func (d *DB) Render(dst []string, nodes []exec.ScoredNode) []string {
	v := d.store.LabelView()
	for _, n := range nodes {
		dst = append(dst, v.Label(n.Doc, n.Ord))
	}
	return dst
}
