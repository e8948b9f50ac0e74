// Package index implements the positional inverted index used by every
// score-generating access method in the paper: TermJoin and its variants
// scan per-term posting lists ordered by start position; PhraseFinder
// additionally uses the word offsets kept with each posting to verify phrase
// adjacency during the intersection itself (Sec. 5.1.2).
//
// A posting records one occurrence of a term: the document, the text node
// that holds it, the absolute word position (which is a key in the same
// space as the region encoding of internal/xmltree, so containment tests
// against element regions work directly), and the word offset within the
// text node.
//
// Storage is block-compressed (internal/postings): each term's list is
// encoded into 128-posting delta+varint blocks with a skip table, cutting
// postings memory several-fold. Cursors decode lazily and seek via the
// skip table. List(term).Materialize() decodes a list back into a raw
// []Posting.
package index

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"

	"repro/internal/postings"
	"repro/internal/storage"
	"repro/internal/tokenize"
	"repro/internal/xmltree"
)

// Posting is one occurrence of a term.
type Posting = postings.Posting

// Cursor iterates a posting list in document order with one-posting
// lookahead, as the merge-based access methods need. See
// internal/postings for the seek semantics.
type Cursor = postings.Cursor

// List is a read-only view over one term's postings, raw or
// block-compressed.
type List = postings.List

// Index is a positional inverted index over the documents of a store. A
// static index (Build/RestoreBlocks) is a single flat segment of block
// lists. A live snapshot (Live.Snapshot) additionally unions extra immutable
// segments, frozen/active memtable runs and a tombstone set behind the
// same surface: every read-side method works over either shape, and a
// snapshot is immutable — safe to share across queries without locks.
type Index struct {
	store *storage.Store
	tok   *tokenize.Tokenizer
	lists map[string]*postings.BlockList // base segment (term → blocks)
	total int64                          // total occurrences across all segments

	// Live-snapshot extensions; all nil/zero for a static index.
	extra  []*segment           // immutable segments beyond the base, doc-ascending
	mems   []*memView           // memtable runs, oldest first
	tomb   *postings.Tombstones // deleted documents, filtered at the cursor layer
	docCap int                  // visible documents: the store's first docCap ids
	gen    uint64               // generation the snapshot was built at
}

// live reports whether the index is a multi-part live snapshot rather
// than a single flat segment.
func (idx *Index) live() bool {
	return idx.extra != nil || idx.mems != nil || idx.tomb != nil
}

// Build tokenizes every text node of every document in s and returns the
// index. The same tokenizer must be used later for query phrases. Build
// panics on an invariant violation (see BuildChecked for the fallible
// path); the violations are programming errors — a correctly numbered
// store cannot produce them.
func Build(s *storage.Store, tok *tokenize.Tokenizer) *Index {
	idx, err := BuildChecked(s, tok)
	if err != nil {
		panic(err)
	}
	return idx
}

// BuildChecked tokenizes every text node of every document in s and
// returns the index, surfacing invariant violations as a classified
// *BuildError instead of repairing them: an out-of-order posting stream
// (ErrPostingOrder, naming the offending term) or a document whose node
// count overflows the int32 posting ordinal (ErrOrdinalOverflow). The
// previous behaviour — silently re-sorting a disordered stream — masked
// upstream numbering bugs that every merge-based operator depends on not
// having.
func BuildChecked(s *storage.Store, tok *tokenize.Tokenizer) (*Index, error) {
	idx := &Index{
		store: s,
		tok:   tok,
	}
	raw := make(map[string][]Posting)
	docs := s.Docs()
	idx.docCap = len(docs)
	for _, doc := range docs {
		if err := checkOrdinalCap(len(doc.Nodes), doc.Name); err != nil {
			return nil, err
		}
		for ord := range doc.Nodes {
			rec := &doc.Nodes[ord]
			if rec.Kind != xmltree.Text {
				continue
			}
			for _, t := range tok.Tokenize(rec.Text) {
				raw[t.Term] = append(raw[t.Term], Posting{
					Doc:    doc.ID,
					Node:   int32(ord),
					Pos:    rec.Start + t.Offset,
					Offset: t.Offset,
				})
				idx.total++
			}
		}
	}
	// Text nodes are visited in document order per document and documents
	// in DocID order, so posting lists must already be sorted; a violation
	// means the region numbering upstream is broken and is surfaced, not
	// repaired. The lexicographically smallest offender is reported so a
	// corrupt store names the same term on every run. Node frequency falls
	// out of the sorted stream during encoding ((doc, node) run
	// transitions), so no per-text-node dedup set is needed.
	bad := ""
	//tixlint:ignore mapiter strict lexicographic minimum over offenders is order-independent
	for term, ps := range raw {
		if !sort.SliceIsSorted(ps, func(i, j int) bool { return ps[i].Less(ps[j]) }) {
			if bad == "" || term < bad {
				bad = term
			}
		}
	}
	if bad != "" {
		return nil, &BuildError{Term: bad, Err: ErrPostingOrder}
	}
	idx.lists = make(map[string]*postings.BlockList, len(raw))
	//tixlint:ignore mapiter per-key encode writing only idx.lists[term]; no cross-key state, so iteration order cannot leak
	for term, ps := range raw {
		bl := postings.Encode(ps)
		bl.MaybeResident() // pre-publication: the list is still exclusively ours
		idx.lists[term] = bl
	}
	return idx, nil
}

// RestoreBlocks reconstitutes an index from already-validated block lists
// (the snapshot load path of internal/db). The map is adopted, not
// copied; every BlockList must come from postings.NewBlockList or Encode.
func RestoreBlocks(s *storage.Store, tok *tokenize.Tokenizer, lists map[string]*postings.BlockList) *Index {
	idx := &Index{
		store:  s,
		tok:    tok,
		lists:  lists,
		docCap: s.NumDocs(),
	}
	// Adoption here covers the snapshot-load path: the lists were just
	// validated by NewBlockList and are not yet visible to any reader.
	//tixlint:ignore mapiter per-list accumulation and adoption; no cross-key state, so iteration order cannot leak
	for _, bl := range lists {
		idx.total += int64(bl.Len())
		bl.MaybeResident()
	}
	return idx
}

// Store returns the store the index was built over.
func (idx *Index) Store() *storage.Store { return idx.store }

// Tokenizer returns the tokenizer the index was built with.
func (idx *Index) Tokenizer() *tokenize.Tokenizer { return idx.tok }

// Generation returns the live generation the snapshot was built at; 0 for
// a static index.
func (idx *Index) Generation() uint64 { return idx.gen }

// Visible reports whether document id belongs to this snapshot: below
// the snapshot's document count and not tombstoned. It takes no lock.
func (idx *Index) Visible(id storage.DocID) bool {
	return id >= 0 && int(id) < idx.docCap && !idx.tomb.Dead(id)
}

// Docs returns the documents visible to this index snapshot, in DocID
// order: the store's table capped at the snapshot's document count, with
// tombstoned documents removed. Operators that walk the corpus (the
// composite and meet baselines) iterate these so deleted documents
// vanish from their results too.
func (idx *Index) Docs() []*storage.Document {
	docs := idx.store.DocsPrefix(idx.docCap)
	if idx.tomb.Len() == 0 {
		return docs
	}
	live := docs[:0]
	for _, d := range docs {
		if !idx.tomb.Dead(d.ID) {
			live = append(live, d)
		}
	}
	return live
}

// List returns the posting list for term (lowercased exact match) as a
// zero-copy view, ordered by (Doc, Pos). Unknown terms yield an empty
// list. This is the access method operators should use: cursors over it
// decode lazily; over a live snapshot the view merges every segment and
// memtable run with tombstoned documents filtered out.
func (idx *Index) List(term string) List {
	if !idx.live() {
		return idx.lists[term].All()
	}
	parts := make([]postings.List, 0, 1+len(idx.extra)+len(idx.mems))
	if bl := idx.lists[term]; bl != nil {
		parts = append(parts, bl.All())
	}
	for _, seg := range idx.extra {
		if bl := seg.lists[term]; bl != nil {
			parts = append(parts, bl.All())
		}
	}
	for _, mv := range idx.mems {
		if run := mv.lists[term]; len(run.ps) > 0 {
			parts = append(parts, postings.NewRawList(run.ps))
		}
	}
	return postings.Union(idx.tomb, parts...)
}

// BlockList exposes term's encoded blocks for persistence; nil for unknown
// terms. Only a flat (static) index has a single block list per term —
// live snapshots return nil, which makes persistence flatten first.
// Operators read a live snapshot's blocks through List (BlockMax,
// AppendDocCounts).
func (idx *Index) BlockList(term string) *postings.BlockList {
	if idx.live() {
		return nil
	}
	return idx.lists[term]
}

// TermFreq returns the total number of occurrences of term. Over a live
// snapshot with deletions this counts tombstone-suppressed occurrences
// too (an upper bound), matching the List.Len contract.
func (idx *Index) TermFreq(term string) int {
	if !idx.live() {
		return idx.lists[term].Len()
	}
	return idx.List(term).Len()
}

// NodeFreq returns the number of distinct text nodes containing term
// (an upper bound under tombstones: segments are document-disjoint, so
// the per-part sum is otherwise exact).
func (idx *Index) NodeFreq(term string) int {
	if !idx.live() {
		return idx.lists[term].NodeFreq()
	}
	n := 0
	if bl := idx.lists[term]; bl != nil {
		n += bl.NodeFreq()
	}
	for _, seg := range idx.extra {
		if bl := seg.lists[term]; bl != nil {
			n += bl.NodeFreq()
		}
	}
	for _, mv := range idx.mems {
		n += mv.lists[term].nodeFreq
	}
	return n
}

// IDF returns the inverse document frequency of term over text nodes:
// log(1 + N/nf), where N is the total number of indexed text nodes with at
// least one token and nf the node frequency of the term. Unknown terms get
// the maximum IDF.
func (idx *Index) IDF(term string) float64 {
	totalNodes := idx.totalTextNodes()
	nf := idx.NodeFreq(term)
	if nf == 0 {
		nf = 1
	}
	return math.Log(1 + float64(totalNodes)/float64(nf))
}

func (idx *Index) totalTextNodes() int {
	n := 0
	for _, doc := range idx.Docs() {
		for ord := range doc.Nodes {
			if doc.Nodes[ord].Kind == xmltree.Text {
				n++
			}
		}
	}
	return n
}

// termFreqs returns the union vocabulary with per-term occurrence counts
// (upper bounds under tombstones).
func (idx *Index) termFreqs() map[string]int {
	freqs := make(map[string]int, len(idx.lists))
	//tixlint:ignore mapiter integer accumulation keyed by term is order-independent
	for term, bl := range idx.lists {
		freqs[term] += bl.Len()
	}
	for _, seg := range idx.extra {
		//tixlint:ignore mapiter integer accumulation keyed by term is order-independent
		for term, bl := range seg.lists {
			freqs[term] += bl.Len()
		}
	}
	for _, mv := range idx.mems {
		for term, run := range mv.lists {
			freqs[term] += len(run.ps)
		}
	}
	return freqs
}

// NumTerms returns the vocabulary size (union across segments and
// memtable runs).
func (idx *Index) NumTerms() int {
	if !idx.live() {
		return len(idx.lists)
	}
	return len(idx.termFreqs())
}

// TotalOccurrences returns the total number of indexed occurrences
// (including tombstone-suppressed ones on a live snapshot).
func (idx *Index) TotalOccurrences() int64 { return idx.total }

// TermsByFreq returns all terms sorted by descending total frequency; ties
// break lexicographically. Useful for workload construction.
func (idx *Index) TermsByFreq() []string {
	type termFreq struct {
		term string
		freq int
	}
	freqs := idx.termFreqs()
	pairs := make([]termFreq, 0, len(freqs))
	for t, f := range freqs {
		pairs = append(pairs, termFreq{t, f})
	}
	slices.SortFunc(pairs, func(a, b termFreq) int {
		if a.freq != b.freq {
			return cmp.Compare(b.freq, a.freq)
		}
		return strings.Compare(a.term, b.term)
	})
	terms := make([]string, len(pairs))
	for i, p := range pairs {
		terms[i] = p.term
	}
	return terms
}

// TermNearFreq returns an indexed term whose total frequency is as close as
// possible to want, excluding any terms in the exclude set. It returns an
// error if the index is empty.
func (idx *Index) TermNearFreq(want int, exclude map[string]bool) (string, error) {
	best := ""
	bestDiff := math.MaxFloat64
	//tixlint:ignore mapiter result is order-independent: strict (diff, lexicographic) tie-break picks the same winner whatever order the map yields
	for t, freq := range idx.termFreqs() {
		if exclude[t] {
			continue
		}
		d := math.Abs(float64(freq - want))
		if d < bestDiff || (d == bestDiff && t < best) {
			best, bestDiff = t, d
		}
	}
	if best == "" {
		return "", fmt.Errorf("index: no candidate term near frequency %d", want)
	}
	return best, nil
}

// MemStats summarizes the index's postings-memory footprint: encoded
// (payload + skip-table) bytes versus what the same postings would cost
// as raw 16-byte structs, and the resulting compression ratio.
type MemStats struct {
	Terms         int   // vocabulary size
	Postings      int64 // total encoded postings
	Blocks        int   // total encoded blocks
	PayloadBytes  int64 // block payload bytes
	SkipBytes     int64 // skip-table bytes
	MemtableBytes int64 // raw bytes held in uncompressed memtable runs
	// Dense lists' resident decoded postings (postings.MaybeResident) are
	// an accelerator kept beside the encoded form, not a replacement for
	// it, so their cost is reported separately and does not enter the
	// compression ratio — the encoded payload stays authoritative for
	// persistence either way. The Bitmap names predate the resident form
	// and stay because the benchmark module reads them.
	BitmapTerms  int     // lists keeping their postings resident
	BitmapBytes  int64   // bytes of those resident postings
	EncodedBytes int64   // PayloadBytes + SkipBytes + MemtableBytes
	RawBytes     int64   // baseline: Postings * 16
	Ratio        float64 // RawBytes / EncodedBytes (0 when empty)
}

// MemStats reports the compression accounting over every term's list,
// spanning all segments plus (uncompressed) memtable runs.
func (idx *Index) MemStats() MemStats {
	ms := MemStats{Terms: idx.NumTerms()}
	segs := make([]map[string]*postings.BlockList, 0, 1+len(idx.extra))
	if idx.lists != nil {
		segs = append(segs, idx.lists)
	}
	for _, seg := range idx.extra {
		segs = append(segs, seg.lists)
	}
	for _, lists := range segs {
		//tixlint:ignore mapiter integer accumulation over per-list sizes is order-independent
		for _, bl := range lists {
			ms.Postings += int64(bl.Len())
			ms.Blocks += bl.NumBlocks()
			ms.PayloadBytes += int64(bl.PayloadBytes())
			ms.SkipBytes += int64(bl.SkipBytes())
			ms.RawBytes += int64(bl.RawBytes())
			if bl.HasResident() {
				ms.BitmapTerms++
				ms.BitmapBytes += int64(bl.ResidentBytes())
			}
		}
	}
	for _, mv := range idx.mems {
		//tixlint:ignore mapiter integer accumulation over per-run sizes is order-independent
		for _, run := range mv.lists {
			n := int64(len(run.ps))
			ms.Postings += n
			ms.MemtableBytes += n * rawPostingBytes
			ms.RawBytes += n * rawPostingBytes
		}
	}
	ms.EncodedBytes = ms.PayloadBytes + ms.SkipBytes + ms.MemtableBytes
	if ms.EncodedBytes > 0 {
		ms.Ratio = float64(ms.RawBytes) / float64(ms.EncodedBytes)
	}
	return ms
}

// rawPostingBytes mirrors the in-memory footprint of one uncompressed
// Posting used by the compression baseline in internal/postings.
const rawPostingBytes = 16
