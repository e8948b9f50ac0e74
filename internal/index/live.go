package index

import (
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/postings"
	"repro/internal/storage"
	"repro/internal/tokenize"
	"repro/internal/xmltree"
)

// LiveConfig tunes the LSM behaviour of a live index. The zero value
// means: seal the active memtable every 32k postings, fold once more than
// 8 segments accumulate, compact in the background.
type LiveConfig struct {
	// SealPostings is the active-memtable size (in postings) that triggers
	// a seal. <=0 selects the default.
	SealPostings int
	// MaxSegments is the immutable-segment count above which a background
	// fold collapses them into one. <=0 selects the default.
	MaxSegments int
	// ManualCompact disables background folding; sealed memtables then
	// accumulate until Compact is called. Tests use this for determinism.
	ManualCompact bool
}

const (
	defaultSealPostings = 32 << 10
	defaultMaxSegments  = 8
)

// Live is the mutable layer over the immutable block-segment index: an
// LSM tree of one active memtable, zero or more sealed (frozen)
// memtables, and encoded segments, plus the tombstone set of deleted
// documents. Writers are serialized by the caller or by Live's own lock;
// readers take immutable snapshots (Snapshot) and never block writers.
//
// Document ids are allocated by the store monotonically and never reused,
// so every layer covers a disjoint ascending id range; an update is a
// tombstone plus a fresh id. Compaction folds sealed memtables and
// segments into fresh block lists under a generation counter — a snapshot
// is rebuilt only when the generation moved.
//
// Beside the counter, Live records per term the generation of the last
// IndexDoc or Delete that touched a document holding the term
// (TermsGeneration). A writer records it only after publishing the
// generation that makes its change visible to Snapshot, so a reader that
// observes a term generation g and then takes a snapshot reads one at
// least as new as g. Folds move no term generation: they only swap
// equivalent representations.
type Live struct {
	store *storage.Store
	tok   *tokenize.Tokenizer
	cfg   LiveConfig

	mu      sync.Mutex
	segs    []*segment  // immutable encoded segments, doc-ascending
	frozen  []*memtable // sealed memtables, oldest first (immutable)
	active  *memtable
	tomb    *postings.Tombstones
	indexed int              // documents visible to snapshots (contiguous id prefix)
	touched []*atomic.Uint64 // IndexDoc's scratch: one document's term cells

	gen  atomic.Uint64
	snap atomic.Pointer[Index]
	// termGen maps a term to the generation of the last write that
	// touched a document holding it (string → *atomic.Uint64). Writers
	// store under mu; readers load without a lock. cells is the writers'
	// copy of the same map, under mu: a plain map, because a write looks
	// up every term of its document and sync.Map's lookups cost several
	// cache misses each.
	termGen sync.Map
	cells   map[string]*atomic.Uint64

	foldMu      sync.Mutex // serializes folds (background and Compact)
	foldPending atomic.Bool
	wg          sync.WaitGroup
}

// NewLive builds the base segment over the store's current documents and
// returns the live index. Invariant violations surface as *BuildError,
// exactly as BuildChecked reports them.
func NewLive(s *storage.Store, tok *tokenize.Tokenizer, cfg LiveConfig) (*Live, error) {
	if cfg.SealPostings <= 0 {
		cfg.SealPostings = defaultSealPostings
	}
	if cfg.MaxSegments <= 0 {
		cfg.MaxSegments = defaultMaxSegments
	}
	idx, err := BuildChecked(s, tok)
	if err != nil {
		return nil, err
	}
	return liveFromFlat(idx, cfg), nil
}

// LiveFromIndex adopts an already-built flat index (e.g. restored from a
// snapshot file) as the base segment of a live index.
func LiveFromIndex(idx *Index, cfg LiveConfig) *Live {
	if cfg.SealPostings <= 0 {
		cfg.SealPostings = defaultSealPostings
	}
	if cfg.MaxSegments <= 0 {
		cfg.MaxSegments = defaultMaxSegments
	}
	return liveFromFlat(idx, cfg)
}

func liveFromFlat(idx *Index, cfg LiveConfig) *Live {
	l := &Live{
		store:   idx.store,
		tok:     idx.tok,
		cfg:     cfg,
		segs:    []*segment{{lists: idx.lists, total: idx.total}},
		active:  newMemtable(),
		indexed: idx.store.NumDocs(),
	}
	l.snap.Store(idx)
	return l
}

// Store returns the document store the live index indexes.
func (l *Live) Store() *storage.Store { return l.store }

// Tokenizer returns the tokenizer documents are ingested with.
func (l *Live) Tokenizer() *tokenize.Tokenizer { return l.tok }

// Generation returns the current mutation generation. Every document add,
// delete and compaction fold advances it; equal generations imply an
// identical visible index.
func (l *Live) Generation() uint64 { return l.gen.Load() }

// TermsGeneration returns the largest generation recorded for any of the
// terms (normalized as queries are): the generation of the last IndexDoc
// or Delete that touched a document holding one of them, or 0 when none
// has since the live index was built. Equal values mean the terms' posting
// lists are unchanged. It takes no lock and allocates nothing for terms
// already in normal form.
func (l *Live) TermsGeneration(terms []string) uint64 {
	var g uint64
	for _, t := range terms {
		if c, ok := l.termGen.Load(l.tok.Normalize(t)); ok {
			g = max(g, c.(*atomic.Uint64).Load())
		}
	}
	return g
}

// cell returns term's generation cell, adding it at 0 (what an absent
// term reads as) when missing. Caller holds mu.
func (l *Live) cell(term string) *atomic.Uint64 {
	if c := l.cells[term]; c != nil {
		return c
	}
	if l.cells == nil {
		l.cells = make(map[string]*atomic.Uint64)
	}
	c := new(atomic.Uint64)
	// A term is often a substring of a stored text node; the clone keeps
	// the maps from pinning the node's text.
	term = strings.Clone(term)
	l.cells[term] = c
	l.termGen.Store(term, c)
	return c
}

// IndexDoc ingests one already-stored document into the active memtable.
// Documents must be indexed in id order (the facade's mutation lock
// guarantees this). On an invariant violation the document is tombstoned —
// a half-indexed document never becomes visible — and the classified
// error is returned; the terms it reached still move to the new
// generation.
func (l *Live) IndexDoc(doc *storage.Document) error {
	l.mu.Lock()
	var err error
	l.touched, err = l.active.addDoc(doc, l.tok, l.cell, l.touched[:0])
	if err != nil {
		l.tomb = l.tomb.WithDead(doc.ID)
	}
	if n := int(doc.ID) + 1; n > l.indexed {
		l.indexed = n
	}
	seal := l.active.total >= int64(l.cfg.SealPostings)
	if seal {
		l.frozen = append(l.frozen, l.active)
		l.active = newMemtable()
	}
	g := l.gen.Add(1)
	for _, c := range l.touched {
		c.Store(g)
	}
	l.mu.Unlock()
	if seal {
		l.maybeCompact()
	}
	return err
}

// Delete tombstones a document. Its postings stop flowing out of every
// cursor immediately; the space is reclaimed when a fold next touches the
// layers that hold them. Every term of the document's stored text moves
// to the new generation, in one tokenizing pass.
func (l *Live) Delete(id storage.DocID) {
	doc := l.store.Doc(id)
	l.mu.Lock()
	defer l.mu.Unlock()
	l.tomb = l.tomb.WithDead(id)
	g := l.gen.Add(1)
	if doc == nil {
		return
	}
	for ord := range doc.Nodes {
		if rec := &doc.Nodes[ord]; rec.Kind == xmltree.Text {
			l.tok.Each(rec.Text, func(term string, _ uint32) { l.cell(term).Store(g) })
		}
	}
}

// IsDead reports whether id is tombstoned.
func (l *Live) IsDead(id storage.DocID) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.tomb.Dead(id)
}

// DeadCount returns the number of tombstoned documents.
func (l *Live) DeadCount() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.tomb.Len()
}

// Snapshot returns an immutable index over the current visible state.
// Snapshots are cached per generation: an unchanged live index hands out
// the same *Index, and a live index that has seen no mutations since its
// last fold hands out a flat one — preserving the static fast paths
// (single-part cursors, direct persistence).
func (l *Live) Snapshot() *Index {
	if s := l.snap.Load(); s != nil && s.gen == l.gen.Load() {
		return s
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	gen := l.gen.Load()
	if s := l.snap.Load(); s != nil && s.gen == gen {
		return s
	}
	s := l.buildSnapshotLocked(gen)
	l.snap.Store(s)
	return s
}

func (l *Live) buildSnapshotLocked(gen uint64) *Index {
	storeDocs := l.store.NumDocs()
	if len(l.segs) == 1 && len(l.frozen) == 0 && l.active.total == 0 &&
		l.tomb.Len() == 0 && l.indexed == storeDocs {
		return &Index{
			store: l.store, tok: l.tok,
			lists: l.segs[0].lists, total: l.segs[0].total,
			gen: gen,
		}
	}
	idx := &Index{
		store: l.store, tok: l.tok,
		tomb: l.tomb, capped: true, docCap: l.indexed, gen: gen,
	}
	if len(l.segs) > 0 {
		idx.lists = l.segs[0].lists
		idx.total = l.segs[0].total
	} else {
		idx.lists = map[string]*postings.BlockList{}
	}
	idx.extra = make([]*segment, 0, len(l.segs))
	for _, seg := range l.segs[min(1, len(l.segs)):] {
		idx.extra = append(idx.extra, seg)
		idx.total += seg.total
	}
	idx.mems = make([]*memView, 0, len(l.frozen)+1)
	for _, mt := range l.frozen {
		v := mt.view() // frozen memtables are immutable; safe without their writer
		idx.mems = append(idx.mems, v)
		idx.total += v.total
	}
	if l.active.total > 0 {
		v := l.active.view()
		idx.mems = append(idx.mems, v)
		idx.total += v.total
	}
	return idx
}

// maybeCompact spawns one background fold unless one is already pending.
func (l *Live) maybeCompact() {
	if l.cfg.ManualCompact {
		return
	}
	if !l.foldPending.CompareAndSwap(false, true) {
		return
	}
	l.wg.Add(1)
	go func() {
		defer l.wg.Done()
		l.foldMu.Lock()
		defer l.foldMu.Unlock()
		l.foldPending.Store(false)
		l.fold(false)
	}()
}

// WaitCompaction blocks until any in-flight background fold finishes.
func (l *Live) WaitCompaction() { l.wg.Wait() }

// Backlog returns the amount of compaction work outstanding: sealed
// memtables waiting to be folded plus segments beyond the single flat
// list a fully-compacted index serves from. Readiness probes compare it
// against a threshold — a large backlog means queries are walking many
// parts per term and scanning raw memtable runs.
func (l *Live) Backlog() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := len(l.frozen)
	if len(l.segs) > 1 {
		n += len(l.segs) - 1
	}
	return n
}

// Compact synchronously folds everything — sealed memtables, the active
// memtable, and all segments — into a single fresh segment, dropping
// postings of documents tombstoned at the start of the fold. Reads stay
// consistent throughout: the fold only ever swaps equivalent
// representations under the generation counter.
func (l *Live) Compact() {
	l.foldMu.Lock()
	defer l.foldMu.Unlock()
	l.mu.Lock()
	if l.active.total > 0 {
		l.frozen = append(l.frozen, l.active)
		l.active = newMemtable()
		l.gen.Add(1)
	}
	l.mu.Unlock()
	l.fold(true)
}

// fold drains sealed memtables into encoded segments and, when the
// segment count exceeds the configured bound (or full is set), collapses
// all segments into one. It loops until no work remains, so seals that
// land mid-fold are picked up before the fold goroutine exits. Callers
// hold foldMu; only fold mutates l.segs or removes from l.frozen, and
// writers only append to l.frozen, which is what makes the splice at the
// end of each pass safe.
func (l *Live) fold(full bool) {
	for {
		l.mu.Lock()
		frozen := append([]*memtable(nil), l.frozen...)
		segs := append([]*segment(nil), l.segs...)
		tomb := l.tomb
		l.mu.Unlock()

		collapse := full || len(segs)+len(frozen) > l.cfg.MaxSegments
		if len(frozen) == 0 && (!collapse || len(segs) <= 1) {
			return
		}

		next := segs
		for _, mt := range frozen {
			if seg := mt.view().encode(tomb); len(seg.lists) > 0 {
				next = append(next, seg)
			}
		}
		if collapse && len(next) > 1 {
			next = []*segment{foldSegments(next, tomb)}
		}

		l.mu.Lock()
		l.segs = next
		l.frozen = l.frozen[len(frozen):]
		l.gen.Add(1)
		l.mu.Unlock()

		if full {
			full = false // one full pass; later passes only drain stragglers
		}
	}
}

// foldSegments merges segments (document-disjoint, ascending) into one
// fresh segment, filtering documents tombstoned in tomb. The per-term
// merge reuses the same Union cursor the read path runs on, so fold
// output is byte-identical to what queries were already seeing.
func foldSegments(segs []*segment, tomb *postings.Tombstones) *segment {
	vocab := make(map[string]struct{})
	for _, seg := range segs {
		//tixlint:ignore mapiter set union; the keys are sorted below before any ordered use
		for term := range seg.lists {
			vocab[term] = struct{}{}
		}
	}
	terms := make([]string, 0, len(vocab))
	for term := range vocab {
		terms = append(terms, term)
	}
	sort.Strings(terms)
	out := &segment{lists: make(map[string]*postings.BlockList, len(terms))}
	for _, term := range terms {
		parts := make([]postings.List, 0, len(segs))
		for _, seg := range segs {
			if bl := seg.lists[term]; bl != nil {
				parts = append(parts, bl.All())
			}
		}
		ps := postings.Union(tomb, parts...).Materialize()
		if len(ps) == 0 {
			continue
		}
		bl := postings.Encode(ps)
		bl.MaybeBitmap() // the fresh segment is unpublished until the swap below
		out.lists[term] = bl
		out.total += int64(len(ps))
	}
	return out
}
