package postings

import (
	"math/bits"
	"sort"

	"repro/internal/storage"
)

// Adaptive bitmap representation (DESIGN.md §15): very high-frequency
// terms — the ones whose cursors the merge operators drive hardest — trade
// the block-decode path for a resident, roaring-style dense form: a
// document-membership bitmap with a rank directory, per-document cumulative
// posting counts, and the node/pos/offset columns decoded once at adoption
// time. Advance is an index increment, document seek is a rank lookup
// (O(1) popcount) instead of a skip-table binary search plus block decode,
// and within-document position seek is a binary search over a flat column.
//
// The accelerator is strictly additive: the encoded payload and skip table
// stay resident and authoritative, so persistence (TIXDB2 writes the
// payload verbatim) and WAND block-max pruning (Skips/MaxFreq) are
// untouched, and the cursor contract is unchanged. Adoption must happen
// before the BlockList is published to readers — Build/Restore/fold call
// MaybeBitmap while they still own the list exclusively.

const (
	// BitmapMinPostings is the posting-count floor below which a list never
	// adopts the bitmap representation: short lists decode in a block or two
	// and the resident columns would be all cost, no win.
	BitmapMinPostings = 4096
	// BitmapMaxSpread bounds sparsity: adopt only when the spanned document
	// range is at most this multiple of the distinct-document count, i.e. at
	// least 1/BitmapMaxSpread of the documents in the span contain the term.
	// Sparser lists would pay long zero-word scans on bitmap iteration.
	BitmapMaxSpread = 8
)

// bitmapRep is the adopted dense form. All slices are immutable after
// construction.
type bitmapRep struct {
	base     storage.DocID // first present document (== skips[0].FirstDoc)
	last     storage.DocID // last present document
	distinct int           // present-document count
	words    []uint64      // membership bit per document in [base, last]
	rank     []int32       // rank[w] = set bits in words[:w]
	cum      []int32       // cum[r]..cum[r+1]: posting-index range of the rank-r doc
	node     []int32       // decoded columns, one entry per posting
	pos      []uint32
	off      []uint32
}

// MaybeBitmap attaches the dense representation if the list qualifies
// (BitmapMinPostings, BitmapMaxSpread), reporting whether it did. It must
// only be called while the caller still owns the BlockList exclusively —
// i.e. before the list is reachable by any concurrent reader; the index
// build, snapshot-restore and compaction-fold paths satisfy this.
func (b *BlockList) MaybeBitmap() bool {
	if b == nil || b.n < BitmapMinPostings || b.bitmap != nil {
		return false
	}
	base := b.skips[0].FirstDoc
	last := b.skips[len(b.skips)-1].LastDoc
	// Distinct-document count from the doc streams alone — cheap enough to
	// probe every candidate without committing to a full decode.
	distinct := 0
	prev := storage.DocID(-1)
	var docs []storage.DocID
	for i := range b.skips {
		docs = b.decodeDocs(i, docs[:0])
		for _, d := range docs {
			if d != prev {
				distinct++
				prev = d
			}
		}
	}
	if int64(last-base)+1 > int64(distinct)*BitmapMaxSpread {
		return false
	}
	b.bitmap = buildBitmap(b, distinct, base, last)
	return true
}

// HasBitmap reports whether the list carries the dense representation.
func (b *BlockList) HasBitmap() bool { return b != nil && b.bitmap != nil }

// BitmapBytes returns the resident size of the dense representation, zero
// when absent — the per-representation accounting MemStats reports.
func (b *BlockList) BitmapBytes() int {
	if b == nil || b.bitmap == nil {
		return 0
	}
	bm := b.bitmap
	return len(bm.words)*8 + len(bm.rank)*4 + len(bm.cum)*4 +
		len(bm.node)*4 + len(bm.pos)*4 + len(bm.off)*4
}

func buildBitmap(b *BlockList, distinct int, base, last storage.DocID) *bitmapRep {
	span := int(last-base) + 1
	bm := &bitmapRep{
		base:     base,
		last:     last,
		distinct: distinct,
		words:    make([]uint64, (span+63)/64),
		cum:      make([]int32, 0, distinct+1),
		node:     make([]int32, 0, b.n),
		pos:      make([]uint32, 0, b.n),
		off:      make([]uint32, 0, b.n),
	}
	prev := storage.DocID(-1)
	var dec []Posting
	idx := 0
	for i := range b.skips {
		dec = b.decodeBlockFast(i, dec[:0])
		for _, p := range dec {
			if p.Doc != prev {
				rel := uint(p.Doc - base)
				bm.words[rel>>6] |= 1 << (rel & 63)
				bm.cum = append(bm.cum, int32(idx))
				prev = p.Doc
			}
			bm.node = append(bm.node, p.Node)
			bm.pos = append(bm.pos, p.Pos)
			bm.off = append(bm.off, p.Offset)
			idx++
		}
	}
	bm.cum = append(bm.cum, int32(b.n))
	bm.rank = make([]int32, len(bm.words))
	r := int32(0)
	for w, word := range bm.words {
		bm.rank[w] = r
		r += int32(bits.OnesCount64(word))
	}
	return bm
}

// rankOf returns the number of present documents strictly before doc, and
// whether doc itself is present. doc must be in [base, last].
func (bm *bitmapRep) rankOf(doc storage.DocID) (int, bool) {
	rel := uint(doc - bm.base)
	word := bm.words[rel>>6]
	bit := uint64(1) << (rel & 63)
	r := int(bm.rank[rel>>6]) + bits.OnesCount64(word&(bit-1))
	return r, word&bit != 0
}

// selectDoc returns the document with rank r (0 <= r < distinct).
func (bm *bitmapRep) selectDoc(r int) storage.DocID {
	w := sort.Search(len(bm.rank), func(k int) bool { return int(bm.rank[k]) > r }) - 1
	word := bm.words[w]
	for rem := r - int(bm.rank[w]); rem > 0; rem-- {
		word &= word - 1
	}
	return bm.base + storage.DocID(w<<6+bits.TrailingZeros64(word))
}

// nextDoc returns the smallest present document > d, or last+1 if none.
func (bm *bitmapRep) nextDoc(d storage.DocID) storage.DocID {
	if d < bm.base {
		d = bm.base - 1
	}
	rel := uint(d-bm.base) + 1
	w := int(rel >> 6)
	if w >= len(bm.words) {
		return bm.last + 1
	}
	word := bm.words[w] &^ (1<<(rel&63) - 1)
	for word == 0 {
		w++
		if w == len(bm.words) {
			return bm.last + 1
		}
		word = bm.words[w]
	}
	return bm.base + storage.DocID(w<<6+bits.TrailingZeros64(word))
}

// docCounts is the bitmap fast path of List.DocCounts over a whole list:
// iterate set bits in [lo, hi), posting counts straight from the cum
// boundaries.
func (bm *bitmapRep) docCounts(lo, hi storage.DocID, fn func(doc storage.DocID, n int) error) error {
	d := lo - 1
	if d < bm.base-1 {
		d = bm.base - 1
	}
	for d = bm.nextDoc(d); d < hi && d <= bm.last; d = bm.nextDoc(d) {
		r, _ := bm.rankOf(d)
		if err := fn(d, int(bm.cum[r+1]-bm.cum[r])); err != nil {
			return err
		}
	}
	return nil
}

// bmSync establishes (bmDoc, bmRank) for the cursor's current posting
// index. Callers guarantee c.i < len(bm.node). The common sequential case
// — still inside the current document, or stepped into the next — avoids
// the binary search.
func (c *Cursor) bmSync() {
	bm := c.bm
	i := int32(c.i)
	if r := c.bmRank; r >= 0 {
		if i >= bm.cum[r] && i < bm.cum[r+1] {
			return
		}
		if r+1 < bm.distinct && i >= bm.cum[r+1] && i < bm.cum[r+2] {
			c.bmRank = r + 1
			c.bmDoc = bm.nextDoc(c.bmDoc)
			return
		}
	}
	r := sort.Search(bm.distinct, func(k int) bool { return bm.cum[k+1] > i })
	c.bmRank = r
	c.bmDoc = bm.selectDoc(r)
}

// bmCur returns the current posting from the resident columns.
func (c *Cursor) bmCur() Posting {
	c.bmSync()
	bm := c.bm
	return Posting{Doc: c.bmDoc, Node: bm.node[c.i], Pos: bm.pos[c.i], Offset: bm.off[c.i]}
}

// bmSeek implements SeekPos on the dense representation: rank lookup to
// the target document, binary search in its position column. The caller
// has checked c.i < c.hi.
func (c *Cursor) bmSeek(doc storage.DocID, pos uint32) {
	bm := c.bm
	c.bmSync()
	if c.bmDoc > doc {
		return
	}
	if c.bmDoc == doc {
		lo, hi := c.i, int(bm.cum[c.bmRank+1])
		j := lo + sort.Search(hi-lo, func(k int) bool { return bm.pos[lo+k] >= pos })
		if j < hi {
			c.bmClamp(j)
			return
		}
		c.bmJump(hi, c.bmRank+1, bm.nextDoc(doc))
		return
	}
	if doc > bm.last {
		c.i = c.hi
		return
	}
	r, present := bm.rankOf(doc)
	if !present {
		// The rank-r present document is the first one past doc.
		c.bmJump(int(bm.cum[r]), r, bm.nextDoc(doc))
		return
	}
	lo, hi := int(bm.cum[r]), int(bm.cum[r+1])
	j := lo + sort.Search(hi-lo, func(k int) bool { return bm.pos[lo+k] >= pos })
	if j < hi {
		c.bmRank, c.bmDoc = r, doc
		c.bmClamp(j)
		return
	}
	c.bmJump(hi, r+1, bm.nextDoc(doc))
}

// bmClamp moves the cursor to posting index i, bounded by the window end.
func (c *Cursor) bmClamp(i int) {
	if i > c.hi {
		i = c.hi
	}
	c.i = i
}

// bmJump positions the cursor at posting index i, the first posting of the
// rank-r document d, or exhausts the window if i falls beyond it.
func (c *Cursor) bmJump(i, r int, d storage.DocID) {
	if i >= c.hi {
		c.i = c.hi
		return
	}
	c.i = i
	c.bmRank = r
	c.bmDoc = d
}
