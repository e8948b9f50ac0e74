package postings

import (
	"sort"

	"repro/internal/storage"
)

// List is a read-only view over a posting list — a raw []Posting slice, a
// window of a block-compressed BlockList, or a merged union of several
// such views with tombstone filtering (see Union). The zero value is an
// empty list. Lists are values: cheap to copy, safe to share.
type List struct {
	raw    []Posting
	bl     *BlockList
	lo, hi int // posting-index window into bl (block mode only)

	sub     []List      // merged mode: the unioned parts (non-nil)
	tomb    *Tombstones // merged mode: documents filtered out of the union
	ordered bool        // merged mode: parts cover disjoint, ascending document ranges
}

// NewRawList wraps an already-materialized posting slice (which must be
// sorted by (Doc, Pos)) without copying.
func NewRawList(ps []Posting) List {
	return List{raw: ps}
}

// All returns a List over the whole block list (nil-safe).
func (b *BlockList) All() List {
	if b == nil || b.n == 0 {
		return List{}
	}
	return List{bl: b, lo: 0, hi: b.n}
}

// Len returns the number of postings in the view. Merged views count
// tombstone-suppressed postings too, so under deletions Len is an upper
// bound on what a cursor will yield.
func (l List) Len() int {
	if l.sub != nil {
		return l.mergedLen()
	}
	if l.bl != nil {
		return l.hi - l.lo
	}
	return len(l.raw)
}

// Blocks returns the underlying BlockList when the view is block-backed
// and spans the entire list, and nil otherwise.
func (l List) Blocks() *BlockList {
	if l.bl != nil && l.lo == 0 && l.hi == l.bl.n {
		return l.bl
	}
	return nil
}

// span returns bounds on the documents a non-empty view holds: exact for
// raw and whole block lists, widened to the enclosing blocks for a block
// window, and the parts' hull for a merged view.
func (l List) span() (first, last storage.DocID) {
	switch {
	case l.sub != nil:
		first, last = l.sub[0].span()
		for _, p := range l.sub[1:] {
			f, la := p.span()
			first, last = min(first, f), max(last, la)
		}
		return first, last
	case l.bl != nil:
		return l.bl.skips[l.bl.blockFor(l.lo)].FirstDoc, l.bl.skips[l.bl.blockFor(l.hi-1)].LastDoc
	}
	return l.raw[0].Doc, l.raw[len(l.raw)-1].Doc
}

// BlockMax is a cursor over a List's block-max view: blocks in ascending
// document order, each bounding how many postings any one document has
// inside it (MaxFreq). Every posting the list yields lies in a block of the
// view; a document spanning consecutive blocks is bounded by the sum of
// their MaxFreqs. Tombstones only remove postings, so the bounds stay upper
// bounds under deletion. Only FirstDoc, LastDoc and MaxFreq of a view
// block are meaningful.
type BlockMax struct {
	parts [][]Skip // per part: its skip table (shared, never copied) or one pseudo-block
	p, j  int      // the current block is parts[p][j]
}

// BlockMax returns the block-max view of l, positioned at its first block.
// A block-backed part contributes the skip entries of the blocks its window
// overlaps. A raw part — a memtable run, a phrase pseudo-term — is one
// pseudo-block bounded by its exact per-document maximum. A merged view
// concatenates its parts' views when the parts cover disjoint ascending
// document ranges, as the live index's segments and memtable runs do, and
// is otherwise one coarse block bounded by Len().
func (l List) BlockMax() BlockMax {
	return BlockMax{parts: l.appendMaxParts(nil)}
}

func (l List) appendMaxParts(dst [][]Skip) [][]Skip {
	switch {
	case l.Len() == 0:
		return dst
	case l.sub != nil && l.ordered:
		for _, p := range l.sub {
			dst = p.appendMaxParts(dst)
		}
		return dst
	case l.sub != nil:
		first, last := l.span()
		return append(dst, []Skip{{FirstDoc: first, LastDoc: last, MaxFreq: uint32(l.Len())}})
	case l.bl != nil:
		return append(dst, l.bl.skips[l.bl.blockFor(l.lo):l.bl.blockFor(l.hi-1)+1])
	}
	return append(dst, []Skip{{FirstDoc: l.raw[0].Doc, LastDoc: l.raw[len(l.raw)-1].Doc, MaxFreq: maxRun(l.raw)}})
}

// maxRun returns the largest number of postings one document has in ps.
func maxRun(ps []Posting) uint32 {
	var best, run uint32
	for i, p := range ps {
		if i == 0 || p.Doc != ps[i-1].Doc {
			run = 0
		}
		run++
		best = max(best, run)
	}
	return best
}

// Valid reports whether the cursor is on a block.
func (b *BlockMax) Valid() bool { return b.p < len(b.parts) }

// Block returns the current block. Call only when Valid.
func (b *BlockMax) Block() Skip { return b.parts[b.p][b.j] }

// Next moves to the following block.
func (b *BlockMax) Next() {
	if b.j++; b.j == len(b.parts[b.p]) {
		b.p, b.j = b.p+1, 0
	}
}

// DocCounts calls fn once per live document in [lo, hi) with at least one
// posting in the view, in ascending document order, with that document's
// posting count. Tombstoned documents are never reported. Block-backed
// parts decode only the document streams of the blocks they touch. fn
// returning an error aborts the scan with that error.
func (l List) DocCounts(lo, hi storage.DocID, fn func(doc storage.DocID, n int) error) error {
	switch {
	case lo >= hi || l.Len() == 0:
		return nil
	case l.sub != nil:
		return l.mergedDocCounts(lo, hi, fn)
	case l.bl != nil:
		return l.bl.docCounts(lo, hi, l.lo, l.hi, fn)
	}
	w := l.Range(lo, hi)
	return countRuns(&Cursor{raw: w.raw, hi: len(w.raw)}, fn)
}

// Cursor returns a fresh cursor positioned at the first posting.
func (l List) Cursor() *Cursor {
	if l.sub != nil {
		return l.mergedCursor()
	}
	if l.bl != nil {
		return &Cursor{bl: l.bl, lo: l.lo, hi: l.hi, i: l.lo, blk: -1, bm: l.bl.bitmap, bmRank: -1}
	}
	return &Cursor{raw: l.raw, hi: len(l.raw)}
}

// Reset repositions an existing cursor at the first posting of l, reusing
// the decode buffer it accumulated in earlier runs — the arena-reuse hook
// for operators that run many short cursor passes (one per document in
// top-k evaluation). Merged views fall back to a fresh cursor structure.
func (l List) Reset(c *Cursor) {
	if l.sub != nil {
		*c = *l.mergedCursor()
		return
	}
	dec := c.dec
	*c = Cursor{}
	if l.bl != nil {
		c.bl, c.lo, c.hi, c.i, c.blk = l.bl, l.lo, l.hi, l.lo, -1
		c.dec = dec[:0]
		c.bm = l.bl.bitmap
		c.bmRank = -1
		return
	}
	c.raw = l.raw
	c.hi = len(l.raw)
	c.dec = dec[:0]
}

// Range narrows the view to postings with lo <= Doc < hi. Block-backed
// views resolve the boundaries via the skip table plus a document-stream
// scan of at most one block per edge — no full decode.
func (l List) Range(lo, hi storage.DocID) List {
	if l.sub != nil {
		return l.mergedRange(lo, hi)
	}
	if l.bl == nil {
		a := sort.Search(len(l.raw), func(i int) bool { return l.raw[i].Doc >= lo })
		b := a + sort.Search(len(l.raw)-a, func(i int) bool { return l.raw[a+i].Doc >= hi })
		return List{raw: l.raw[a:b]}
	}
	a := l.bl.lowerBound(lo)
	b := l.bl.lowerBound(hi)
	if a < l.lo {
		a = l.lo
	}
	if b > l.hi {
		b = l.hi
	}
	if a >= b {
		return List{}
	}
	return List{bl: l.bl, lo: a, hi: b}
}

// lowerBound returns the index of the first posting with Doc >= doc, or
// b.n if none.
func (b *BlockList) lowerBound(doc storage.DocID) int {
	if bm := b.bitmap; bm != nil {
		if doc <= bm.base {
			return 0
		}
		if doc > bm.last {
			return b.n
		}
		// Whether doc is present or not, the first posting with Doc >= doc
		// is the first posting of the rank-r document.
		r, _ := bm.rankOf(doc)
		return int(bm.cum[r])
	}
	// First block whose LastDoc >= doc.
	lo, hi := 0, len(b.skips)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if b.skips[mid].LastDoc < doc {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo == len(b.skips) {
		return b.n
	}
	if b.skips[lo].FirstDoc >= doc {
		return b.blockStart(lo)
	}
	// The boundary falls inside block lo: resolve with a doc-only decode.
	var buf [BlockSize]storage.DocID
	docs := b.decodeDocs(lo, buf[:0])
	start := b.blockStart(lo)
	j := sort.Search(len(docs), func(k int) bool { return docs[k] >= doc })
	return start + j
}

// Materialize returns the postings as a flat slice. Raw-backed views
// return the underlying slice (callers must not modify it); block-backed
// and merged views allocate and decode, and merged views exclude
// tombstoned documents.
func (l List) Materialize() []Posting {
	if l.sub != nil {
		return l.mergedMaterialize()
	}
	if l.bl == nil {
		return l.raw
	}
	if l.lo == l.hi {
		return nil
	}
	out := make([]Posting, 0, l.hi-l.lo)
	first := l.bl.blockFor(l.lo)
	last := l.bl.blockFor(l.hi - 1)
	for i := first; i <= last; i++ {
		out = l.bl.mustDecodeBlock(i, out)
	}
	// Trim the partial edge blocks down to the window.
	start := l.bl.blockStart(first)
	out = out[l.lo-start:]
	return out[:l.hi-l.lo]
}
