// Package db is the database facade of the reproduction — the stand-in for
// the Timber system the paper ran on. It owns document loading, index
// construction, and query evaluation: extended-XQuery strings (internal/xq)
// for the paper's Query 1/2 shapes, and programmatic APIs for term search,
// phrase search, and the Query 3 similarity join.
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
	"time"

	"repro/internal/algebra"
	"repro/internal/exec"
	"repro/internal/index"
	"repro/internal/metrics"
	"repro/internal/pattern"
	"repro/internal/rescache"
	"repro/internal/scoring"
	"repro/internal/storage"
	"repro/internal/tokenize"
	"repro/internal/xmltree"
	"repro/internal/xq"
)

// DB is an XML database instance. Queries may run concurrently with the
// document mutation API (Add/Update/Delete): readers work over immutable
// index snapshots, writers are serialized by the facade's mutation lock.
type DB struct {
	store *storage.Store
	tok   *tokenize.Tokenizer
	opts  Options

	mu   sync.Mutex  // serializes mutations and live-index creation
	live *index.Live // created on first Index()/Warm()/mutation

	// cache, when set, memoizes successful term/phrase/query results per
	// generation token (see cache.go).
	cache atomic.Pointer[rescache.Cache]
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
	// Metrics, when non-nil, receives the per-query instrumentation
	// (latency histograms, result counts, store-access counters) instead
	// of the process-wide metrics.Default registry.
	Metrics *metrics.Registry
	// Limits is the default per-query resource budget (wall-clock
	// timeout, result cap, store-access cap) applied by every Context
	// entry point. The zero value means unlimited. Per-call budgets
	// (e.g. QueryLimited, TermSearchOptions.Limits) take precedence.
	Limits exec.Limits
	// Ingest tunes the live-index LSM behaviour (memtable seal size,
	// segment fold bound, background compaction). The zero value selects
	// the defaults; see index.LiveConfig.
	Ingest index.LiveConfig
	// CacheBytes, when positive, attaches a generation-keyed result cache
	// with that total byte budget (see internal/rescache and cache.go).
	CacheBytes int64
}

// ErrPanic marks errors produced by recovering a panic at the facade
// boundary; db.observe classifies them into tix_query_panics_total, and
// the fleet layer treats them as replica faults eligible for retry on a
// healthy twin.
var ErrPanic = errors.New("db: recovered panic")

// recoverPanic converts a panic inside the evaluation engine into a
// returned error, so injected storage faults and operator bugs degrade to
// errors instead of crashing the process. Deferred at every facade entry
// point, after the metrics defer (defers run LIFO, so the observation sees
// the recovered error).
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
	d := &DB{store: storage.NewStore(), tok: tok, opts: opts}
	if opts.CacheBytes > 0 {
		d.EnableResultCache(opts.CacheBytes)
	}
	return d
}

// Store exposes the underlying node store.
func (d *DB) Store() *storage.Store { return d.store }

// DocumentCount returns the number of live (non-deleted) documents
// without forcing index construction (the cheap health-probe counterpart
// of Stats).
func (d *DB) DocumentCount() int {
	d.mu.Lock()
	l := d.live
	d.mu.Unlock()
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

// Options returns a copy of the options the database was created with,
// so wrappers (the sharded facade, resharding) can build compatible
// instances.
func (d *DB) Options() Options { return d.opts }

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
	if d.live != nil {
		if ierr := d.live.IndexDoc(d.store.Doc(id)); ierr != nil {
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

// RemoveDocument unloads a document by name. Because document ids are
// positional, the store is rebuilt from the remaining documents (an O(N)
// operation) and the inverted index is invalidated; ids of later documents
// shift down, exactly as if the database had been loaded without the
// removed document.
func (d *DB) RemoveDocument(name string) error {
	old := d.store
	if old.DocByName(name) == nil {
		return fmt.Errorf("db: document %q not loaded", name)
	}
	fresh := storage.NewStore()
	for _, doc := range old.Docs() {
		if doc.Name == name {
			continue
		}
		if _, err := fresh.AddTree(doc.Name, doc.Root); err != nil {
			return fmt.Errorf("db: rebuild after remove: %w", err)
		}
	}
	d.store = fresh
	d.live = nil
	// The rebuilt live index restarts its generation counter; stale
	// entries must not survive to collide with the fresh numbering.
	d.purgeCache()
	return nil
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
// store's current contents on first use. An invariant violation during
// the initial build panics, exactly as index.Build does; the facade entry
// points recover it into a classified error.
func (d *DB) liveIndex() *index.Live {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.liveLocked()
}

func (d *DB) liveLocked() *index.Live {
	if d.live == nil {
		l, err := index.NewLive(d.store, d.tok, d.opts.Ingest)
		if err != nil {
			panic(err)
		}
		d.live = l
	}
	return d.live
}

// adoptIndex installs an already-restored flat index as the live base
// segment (the persistence load path).
func (d *DB) adoptIndex(idx *index.Index) {
	d.mu.Lock()
	d.live = index.LiveFromIndex(idx, d.opts.Ingest)
	d.mu.Unlock()
	// The adopted index restarts the generation counter: purge, as in
	// RemoveDocument.
	d.purgeCache()
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

// Query parses and evaluates an extended-XQuery query (the Sec. 4 dialect).
func (d *DB) Query(src string) ([]xq.Result, error) {
	return d.QueryContext(context.Background(), src)
}

// QueryContext is Query with cooperative cancellation: the evaluation
// stops within one check interval of ctx being canceled or its deadline
// passing, and respects the database's default resource limits.
func (d *DB) QueryContext(ctx context.Context, src string) ([]xq.Result, error) {
	return d.QueryLimited(ctx, src, d.opts.Limits)
}

// QueryLimited is QueryContext with an explicit per-call resource budget.
func (d *DB) QueryLimited(ctx context.Context, src string, limits exec.Limits) (results []xq.Result, err error) {
	start := time.Now()
	var stats storage.AccessStats
	defer func() { d.observe(opQuery, start, len(results), stats, err) }()
	if c, tok, ok := d.queryCache(); ok {
		key := rescache.QueryKey(tok, src, limits)
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
	e := &xq.Engine{Store: d.store, Index: d.Index(), Stats: &stats, Guard: exec.NewGuard(ctx, limits)}
	results, err = e.EvalString(src)
	return results, err
}

// QueryRendered evaluates a query and renders each result through the
// query's Return template (or the canonical <result> shape when the query
// has none).
func (d *DB) QueryRendered(src string) ([]string, []xq.Result, error) {
	return d.QueryRenderedContext(context.Background(), src)
}

// QueryRenderedContext is QueryRendered with cooperative cancellation and
// the database's default resource limits.
func (d *DB) QueryRenderedContext(ctx context.Context, src string) (rendered []string, results []xq.Result, err error) {
	start := time.Now()
	var stats storage.AccessStats
	defer func() { d.observe(opQuery, start, len(results), stats, err) }()
	defer recoverPanic(&err)
	q, err := xq.Parse(src)
	if err != nil {
		return nil, nil, err
	}
	e := &xq.Engine{Store: d.store, Index: d.Index(), Stats: &stats, Guard: exec.NewGuard(ctx, d.opts.Limits)}
	results, err = e.Eval(q)
	if err != nil {
		return nil, nil, err
	}
	rendered = make([]string, len(results))
	for i, r := range results {
		rendered[i] = q.Render(r)
	}
	return rendered, results, nil
}

// Explain renders the physical plan for a query without executing it.
func (d *DB) Explain(src string) (string, error) {
	start := time.Now()
	e := &xq.Engine{Store: d.store, Index: d.Index()}
	plan, err := e.Explain(src)
	d.observe(opExplain, start, 0, storage.AccessStats{}, err)
	return plan, err
}

// TermSearchOptions configures TermSearch.
type TermSearchOptions struct {
	// Complex selects the complex scoring function of Sec. 6.1.
	Complex bool
	// Enhanced uses the child-count index (Enhanced TermJoin); only
	// meaningful with Complex.
	Enhanced bool
	// TopK limits results to the k best scores (0 = all).
	TopK int
	// MinScore drops elements whose score is not strictly greater than
	// the given value (the Threshold operator's V condition; 0 = keep
	// all). Applied before TopK, so the k results are the k best above
	// the threshold.
	MinScore float64
	// Weights per term (defaults to 1 each).
	Weights []float64
	// Parallel partitions the evaluation across this many worker
	// goroutines, one document range each (0 = sequential).
	Parallel int
	// Limits is the per-call resource budget; the zero value falls back
	// to the database's default (Options.Limits).
	Limits exec.Limits
}

// TermSearch scores every element containing at least one of the terms,
// using the TermJoin access method, and returns results best-first.
func (d *DB) TermSearch(terms []string, opts TermSearchOptions) ([]exec.ScoredNode, error) {
	return d.TermSearchContext(context.Background(), terms, opts)
}

// TermSearchContext is TermSearch with cooperative cancellation and
// resource budgets: the scan stops within one check interval of ctx being
// canceled, the deadline passing, or a budget running out.
func (d *DB) TermSearchContext(ctx context.Context, terms []string, opts TermSearchOptions) (results []exec.ScoredNode, err error) {
	start := time.Now()
	eff := d.limitsOr(opts.Limits)
	var stats storage.AccessStats
	defer func() { d.observe(opTerms, start, len(results), stats, err) }()
	if c, tok, ok := d.queryCache(); ok {
		key := rescache.TermKey(tok, terms, rescache.TermOpts{
			Complex: opts.Complex, TopK: opts.TopK, MinScore: opts.MinScore,
			Weights: opts.Weights, Limits: eff,
		})
		if hit, found := rescache.GetSlice[exec.ScoredNode](c, key); found {
			results = hit
			return results, nil
		}
		defer func() {
			if err == nil {
				rescache.PutSlice(c, key, results)
			}
		}()
	}
	defer recoverPanic(&err)
	results, err = SearchTerms(d.Index(), terms, opts, exec.NewGuard(ctx, eff), &stats)
	return results, err
}

// SearchTerms evaluates one term search over an index snapshot under
// guard and returns the results best-first under exec.RankedBefore,
// adding the evaluation's store traffic to stats (on failure too). It is
// the per-segment evaluation both facades share.
//
// A top-k search runs the pruned TopKTermJoin — block-max over flat block
// lists, document-at-a-time over a live snapshot's merged lists — and
// applies MinScore to its k results, which is exact because the elements
// above a threshold are a prefix of the ranking. A negative or NaN
// weight, for which the pruning bound does not hold, keeps the exhaustive
// scan feeding a TopK. Every path returns the same elements.
func SearchTerms(idx *index.Index, terms []string, opts TermSearchOptions, guard *exec.Guard, stats *storage.AccessStats) ([]exec.ScoredNode, error) {
	mode := exec.ChildCountNavigate
	if opts.Enhanced {
		mode = exec.ChildCountIndexed
	}
	q := exec.TermQuery{
		Terms:   terms,
		Complex: opts.Complex,
		Scorer: exec.DefaultScorer{
			SimpleFn:  scoring.SimpleScorer{Weights: opts.Weights},
			ComplexFn: scoring.ComplexScorer{Weights: opts.Weights},
		},
	}
	var reporter exec.AccessReporter
	defer func() {
		if reporter != nil {
			stats.Add(reporter.AccessStats())
		}
	}()
	if opts.TopK > 0 && nonNegative(opts.Weights) {
		tk := &exec.TopKTermJoin{Index: idx, Query: q, K: opts.TopK, ChildCounts: mode, Guard: guard}
		reporter = tk
		results, err := tk.Run()
		if err != nil {
			return nil, err
		}
		return exec.AboveMinScore(results, opts.MinScore), nil
	}
	run := func(emit exec.Emit) error {
		if opts.MinScore > 0 {
			emit = exec.FilterMinScore(opts.MinScore, emit)
		}
		if opts.Parallel > 0 {
			p := &exec.ParallelTermJoin{Index: idx, Query: q, Workers: opts.Parallel, ChildCounts: mode, Guard: guard}
			reporter = p
			return p.Run(emit)
		}
		// The accessor is made after the caller took idx, so its view of
		// the document table covers every document idx can name.
		acc := guard.NewAccessor(idx.Store())
		tj := &exec.TermJoin{Index: idx, Acc: acc, Query: q, ChildCounts: mode, Guard: guard}
		reporter = tj
		return tj.Run(emit)
	}
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

// nonNegative reports whether every weight is ≥ 0 (NaN is not).
func nonNegative(weights []float64) bool {
	for _, w := range weights {
		if !(w >= 0) {
			return false
		}
	}
	return true
}

// PhraseSearch returns every occurrence of the phrase via PhraseFinder.
func (d *DB) PhraseSearch(phrase []string) ([]exec.PhraseMatch, error) {
	return d.PhraseSearchContext(context.Background(), phrase)
}

// PhraseSearchContext is PhraseSearch with cooperative cancellation and
// the database's default resource limits.
func (d *DB) PhraseSearchContext(ctx context.Context, phrase []string) (ms []exec.PhraseMatch, err error) {
	start := time.Now()
	var pf *exec.PhraseFinder
	defer func() {
		var stats storage.AccessStats
		if pf != nil {
			stats = pf.AccessStats()
		}
		d.observe(opPhrase, start, len(ms), stats, err)
	}()
	if c, tok, ok := d.queryCache(); ok {
		key := rescache.PhraseKey(tok, phrase, d.opts.Limits)
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
	pf = &exec.PhraseFinder{Index: d.Index(), Phrase: phrase, Guard: exec.NewGuard(ctx, d.opts.Limits)}
	ms, err = exec.CollectPhrase(pf.Run)
	return ms, err
}

// Materialize returns the xmltree subtree for a result element.
func (d *DB) Materialize(doc storage.DocID, ord int32) *xmltree.Node {
	return storage.NewAccessor(d.store).Materialize(doc, ord)
}

// NameOf returns the element tag name of a scored node.
func (d *DB) NameOf(n exec.ScoredNode) string {
	doc := d.store.Doc(n.Doc)
	if doc == nil {
		return ""
	}
	return d.store.Tags.Name(doc.Nodes[n.Ord].Tag)
}

// TwigSearch runs the holistic twig join (TwigStack) for a structural tag
// pattern against every loaded document and returns matches as
// materialized subtrees of the pattern root's bindings, deduplicated and
// in document order. Use exec.Twig / exec.TwigChild to build the pattern.
func (d *DB) TwigSearch(pattern *exec.TwigNode) ([]*xmltree.Node, error) {
	return d.TwigSearchContext(context.Background(), pattern)
}

// TwigSearchContext is TwigSearch with cooperative cancellation and the
// database's default resource limits.
func (d *DB) TwigSearchContext(ctx context.Context, pattern *exec.TwigNode) (out []*xmltree.Node, err error) {
	refs, err := d.TwigRefsContext(ctx, pattern)
	if err != nil {
		return nil, err
	}
	out = make([]*xmltree.Node, 0, len(refs))
	for _, ref := range refs {
		out = append(out, d.store.Doc(ref.Doc).TreeNode(ref.Ord))
	}
	return out, nil
}

// TwigRef identifies one twig-match root element by position: the loaded
// document and the element's start ordinal within it. Unlike the
// materialized tree pointers of TwigSearch, refs are comparable across
// database instances holding the same documents — the identity the
// differential test suites (and the sharded facade) join on.
type TwigRef struct {
	Doc storage.DocID
	Ord int32
}

// TwigRefsContext runs the holistic twig join and returns the pattern
// root's bindings as refs, deduplicated, in document order.
func (d *DB) TwigRefsContext(ctx context.Context, pattern *exec.TwigNode) (out []TwigRef, err error) {
	start := time.Now()
	var stats storage.AccessStats
	defer func() { d.observe(opTwig, start, len(out), stats, err) }()
	defer recoverPanic(&err)
	guard := exec.NewGuard(ctx, d.opts.Limits)
	for _, doc := range d.Index().Docs() {
		ts := &exec.TwigStack{Store: d.store, Doc: doc.ID, Root: pattern, Guard: guard}
		matches, terr := ts.Run()
		stats.Add(ts.AccessStats())
		if terr != nil {
			return nil, terr
		}
		seen := map[int32]bool{}
		for _, m := range matches {
			root := m[0]
			if seen[root] {
				continue
			}
			seen[root] = true
			out = append(out, TwigRef{Doc: doc.ID, Ord: root})
		}
	}
	return out, nil
}

// SimilarityJoinSpec describes a Query 3-style IR join: components of the
// left document scored against query phrases, joined with right-document
// elements by text similarity between LeftKey and RightKey children, with
// root scores combined by ScoreBar.
type SimilarityJoinSpec struct {
	LeftDoc, RightDoc   string
	LeftRoot, RightRoot string // element tags bound on each side
	LeftKey, RightKey   string // tags of the similarity-compared children
	Primary, Secondary  []string
	// PickThreshold applies PickFoo-style pruning to the scored left
	// components before joining (0 disables).
	PickThreshold float64
	// MinSim drops pairs whose similarity score is not above the given
	// value (the Threshold simScore > 1 step of Query 3).
	MinSim float64
}

// JoinedResult is one similarity-join result.
type JoinedResult struct {
	// Score is the combined ScoreBar(simScore, componentScore).
	Score float64
	// Sim is the title-similarity component.
	Sim float64
	// Component is the scored left-side component subtree.
	Component *xmltree.Node
	// ComponentScore is its IR score.
	ComponentScore float64
	// Right is the joined right-side element subtree.
	Right *xmltree.Node
}

// SimilarityJoin evaluates a Query 3-style join through the TIX algebra,
// best-first.
func (d *DB) SimilarityJoin(spec SimilarityJoinSpec) ([]JoinedResult, error) {
	return d.SimilarityJoinContext(context.Background(), spec)
}

// SimilarityJoinContext is SimilarityJoin with panic recovery and an
// up-front cancellation check. The algebra path evaluates over xmltree
// values in one non-streaming pass, so cancellation is only observed at
// entry, not mid-join; use the extended-XQuery join shape (QueryContext)
// for cooperatively cancellable joins.
func (d *DB) SimilarityJoinContext(ctx context.Context, spec SimilarityJoinSpec) (results []JoinedResult, err error) {
	start := time.Now()
	// The algebra path evaluates over xmltree values directly, so there is
	// no accounting accessor; latency and result counts still record.
	defer func() { d.observe(opJoin, start, len(results), storage.AccessStats{}, err) }()
	defer recoverPanic(&err)
	if cerr := ctx.Err(); cerr != nil {
		if errors.Is(cerr, context.DeadlineExceeded) {
			return nil, exec.ErrDeadlineExceeded
		}
		return nil, exec.ErrCanceled
	}
	left := d.store.DocByName(spec.LeftDoc)
	right := d.store.DocByName(spec.RightDoc)
	if left == nil || right == nil {
		return nil, fmt.Errorf("db: similarity join needs both documents loaded")
	}

	p := pattern.NewPattern(1)
	l := p.Root.Child(2, pattern.AD)
	l.Child(3, pattern.PC)
	l.Child(6, pattern.ADStar)
	r := p.Root.Child(7, pattern.AD)
	r.Child(8, pattern.PC)
	p.Formula = pattern.Conj(
		pattern.TagEq(1, algebra.ProdRootTag),
		pattern.TagEq(2, spec.LeftRoot),
		pattern.TagEq(3, spec.LeftKey),
		pattern.IsElement(6),
		pattern.TagEq(7, spec.RightRoot),
		pattern.TagEq(8, spec.RightKey),
	)
	scores := &algebra.ScoreSet{
		Primary: map[int]algebra.NodeScorer{
			6: func(n *xmltree.Node) float64 {
				return scoring.ScoreFoo(d.tok, n, spec.Primary, spec.Secondary)
			},
		},
		Join: map[string]algebra.JoinScorer{
			"simScore": func(b pattern.Binding) float64 {
				return scoring.ScoreSim(d.tok, b[3], b[8])
			},
		},
		Secondary: map[int]algebra.ScoreExpr{
			2: algebra.VarScore(6),
			1: func(e algebra.ScoreEnv) float64 {
				return scoring.ScoreBar(e.Named["simScore"], e.Var[6])
			},
		},
	}
	joined := algebra.Join(
		algebra.FromXML(left.Root), algebra.FromXML(right.Root), p, scores)

	var out []JoinedResult
	for _, w := range joined.SortByRootScore() {
		comp := w.NodesOfVar(6)[0]
		compScore, _ := w.Score(comp)
		rootScore := w.RootScore()
		sim := 0.0
		if compScore > 0 {
			sim = rootScore - compScore
		}
		if spec.MinSim > 0 && sim <= spec.MinSim {
			continue
		}
		if rootScore <= 0 {
			continue
		}
		if spec.PickThreshold > 0 && compScore < spec.PickThreshold {
			continue
		}
		rightN := w.NodesOfVar(7)[0]
		out = append(out, JoinedResult{
			Score:          rootScore,
			Sim:            sim,
			Component:      comp.Origin(),
			ComponentScore: compScore,
			Right:          rightN.Origin(),
		})
	}
	return out, nil
}
