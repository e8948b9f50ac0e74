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

	sub  []List      // merged mode: the flat parts, disjoint and document-ascending
	tomb *Tombstones // merged mode: documents filtered out of the union
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
// window, and first part to last part for a merged view.
func (l List) span() (first, last storage.DocID) {
	switch {
	case l.sub != nil:
		first, _ = l.sub[0].span()
		_, last = l.sub[len(l.sub)-1].span()
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
// concatenates its parts' views, which Union keeps document-ascending.
func (l List) BlockMax() BlockMax {
	return BlockMax{parts: l.appendMaxParts(make([][]Skip, 0, max(1, len(l.sub))))}
}

func (l List) appendMaxParts(dst [][]Skip) [][]Skip {
	switch {
	case l.Len() == 0:
		return dst
	case l.sub != nil:
		for _, p := range l.sub {
			dst = p.appendMaxParts(dst)
		}
		return dst
	case l.bl != nil:
		return append(dst, l.bl.skips[l.bl.blockFor(l.lo):l.bl.blockFor(l.hi-1)+1])
	}
	return append(dst, []Skip{{FirstDoc: l.raw[0].Doc, LastDoc: l.raw[len(l.raw)-1].Doc, MaxFreq: maxRun(l.raw)}})
}

// maxRun returns the largest number of postings one document has in ps.
func maxRun(ps []Posting) uint32 {
	best, n := 0, 0
	for i := range ps {
		if n++; i+1 == len(ps) || ps[i+1].Doc != ps[i].Doc {
			best, n = max(best, n), 0
		}
	}
	return uint32(best)
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

// DocCount is a document and its number of postings in a list.
type DocCount struct {
	Doc storage.DocID
	N   int
}

// AppendDocCounts appends to dst, in ascending document order, each live
// document in [lo, hi) with at least one posting in the view and that
// document's posting count, and returns the extended slice; dst's existing
// elements are left untouched. Tombstoned documents are never reported.
// Block-backed parts decode only the document streams of the blocks they
// touch.
func (l List) AppendDocCounts(lo, hi storage.DocID, dst []DocCount) []DocCount {
	switch {
	case l.sub != nil:
		return l.mergedDocCounts(lo, hi, dst)
	case lo >= hi || l.Len() == 0:
		return dst
	case l.bl == nil:
		return appendRuns(dst, l.Range(lo, hi).raw)
	case l.bl.resident != nil:
		w := l.Range(lo, hi)
		return appendRuns(dst, l.bl.resident[w.lo:w.hi])
	}
	return l.bl.appendDocCounts(lo, hi, l.lo, l.hi, dst)
}

// Cursor returns a fresh cursor positioned at the first posting.
func (l List) Cursor() *Cursor {
	c := &Cursor{}
	l.Reset(c)
	return c
}

// Reset repositions an existing cursor at the first posting of l, reusing
// the decode buffer it accumulated in earlier runs — the arena-reuse hook
// for operators that run many cursor passes, as TermJoin's arena does
// across the documents top-k scores. Any list shape may follow any other.
func (l List) Reset(c *Cursor) {
	*c = Cursor{scratch: c.scratch[:0]}
	if l.sub == nil {
		c.open(l)
		return
	}
	c.rest, c.tomb = l.sub, l.tomb
	c.next()
	c.settle()
}

// open positions c at the first posting of the flat view l, keeping the
// decode buffer and any merged-mode state.
func (c *Cursor) open(l List) {
	c.raw, c.bl, c.blk = l.raw, l.bl, -1
	c.lo, c.hi, c.i = 0, len(l.raw), 0
	if l.bl != nil {
		c.lo, c.hi, c.i = l.lo, l.hi, l.lo
	}
}

// Range narrows the view to postings with lo <= Doc < hi. Block-backed
// views resolve the boundaries via the skip table plus a document-stream
// scan of at most one block per edge — no full decode.
func (l List) Range(lo, hi storage.DocID) List {
	if l.sub != nil {
		return l.mergedRange(lo, hi)
	}
	if l.bl == nil {
		a, b := docBounds(l.raw, lo, hi)
		return List{raw: l.raw[a:b]}
	}
	a, b := l.bl.lowerBounds(lo, hi)
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

// lowerBounds returns the indexes of the first postings with Doc >= lo
// and with Doc >= hi, b.n for none. Resident postings are searched
// directly; otherwise a boundary inside a block is resolved with a
// doc-only decode, made once when both fall inside the same block.
func (b *BlockList) lowerBounds(lo, hi storage.DocID) (int, int) {
	if b.resident != nil {
		return docBounds(b.resident, lo, hi)
	}
	var buf [BlockSize]storage.DocID
	var docs []storage.DocID
	decoded := -1
	at := func(doc storage.DocID) int {
		// First block whose LastDoc >= doc.
		i, j := 0, len(b.skips)
		for i < j {
			mid := int(uint(i+j) >> 1)
			if b.skips[mid].LastDoc < doc {
				i = mid + 1
			} else {
				j = mid
			}
		}
		switch {
		case i == len(b.skips):
			return b.n
		case b.skips[i].FirstDoc >= doc:
			return b.blockStart(i)
		case i != decoded:
			docs, decoded = b.decodeDocs(i, buf[:0]), i
		}
		return b.blockStart(i) + sort.Search(len(docs), func(k int) bool { return docs[k] >= doc })
	}
	return at(lo), at(hi)
}

// AppendRange appends the postings of l.Range(lo, hi) to dst, as AppendTo
// does, without building the narrowed view: a merged view appends the
// window of each part that meets [lo, hi) in turn and then drops the dead
// documents' postings in place.
func (l List) AppendRange(lo, hi storage.DocID, dst []Posting) []Posting {
	if l.sub == nil {
		return l.Range(lo, hi).AppendTo(dst)
	}
	n := len(dst)
	for _, p := range l.partsIn(lo, hi) {
		dst = p.Range(lo, hi).AppendTo(dst)
	}
	if !l.tomb.DeadIn(lo, hi) {
		return dst
	}
	live := dst[:n]
	for _, p := range dst[n:] {
		if !l.tomb.Dead(p.Doc) {
			live = append(live, p)
		}
	}
	return live
}

// Materialize returns the postings as a flat slice: a raw view's
// underlying slice (callers must not modify it), and otherwise a fresh
// slice filled by AppendTo.
func (l List) Materialize() []Posting {
	if l.bl == nil && l.sub == nil {
		return l.raw
	}
	return l.AppendTo(make([]Posting, 0, l.Len()))
}

// AppendTo appends the view's postings to dst in (Doc, Pos) order and
// returns the extended slice; dst's existing elements are left untouched.
// A block window copies its resident postings, or else decodes each block
// it overlaps once and trims the edge blocks to the window, and a merged
// view appends its parts in turn, dropping the postings of
// tombstoned documents, so they never appear.
func (l List) AppendTo(dst []Posting) []Posting {
	switch {
	case l.sub != nil:
		first, last := l.span()
		return l.AppendRange(first, last+1, dst)
	case l.bl == nil:
		return append(dst, l.raw...)
	case l.bl.resident != nil:
		return append(dst, l.bl.resident[l.lo:l.hi]...)
	}
	n, first, last := len(dst), l.bl.blockFor(l.lo), l.bl.blockFor(l.hi-1)
	for i := first; i <= last; i++ {
		dst = l.bl.decodeBlockFast(i, dst)
	}
	from := n + l.lo - l.bl.blockStart(first)
	return append(dst[:n], dst[from:from+l.hi-l.lo]...)
}
