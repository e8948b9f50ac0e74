package postings

import (
	"sort"

	"repro/internal/storage"
)

// Cursor iterates a posting list in document order with positional seek.
// It operates over either representation: raw slices advance an index;
// block-backed cursors load one block at a time, seeking via the skip
// table and galloping within the loaded block. A block load decodes into
// the cursor's own scratch buffer, or slices a resident list's postings.
//
// The contract matches the original uncompressed cursor exactly:
// Valid/Cur/Advance/SeekPos with (Doc, Pos) ordering.
type Cursor struct {
	raw []Posting

	bl     *BlockList
	lo, hi int // posting-index window into bl
	i      int // current absolute posting index

	blk     int       // loaded block index, -1 if none
	base    int       // absolute index of dec[0]
	dec     []Posting // postings of block blk: scratch, or a resident window
	scratch []Posting // decode buffer; never aliases resident postings

	// Merged mode (see Union): the fields above walk the current part and
	// rest holds the parts after it. dead is set while the current part's
	// span holds a document of tomb; only then is each document tested.
	rest []List
	tomb *Tombstones
	dead bool
}

// Valid reports whether the cursor points at a posting.
func (c *Cursor) Valid() bool { return c.i < c.hi }

// Cur returns the current posting. Call only when Valid.
func (c *Cursor) Cur() Posting {
	if c.bl == nil {
		return c.raw[c.i]
	}
	if c.blk < 0 || c.i < c.base || c.i >= c.base+len(c.dec) {
		c.loadBlock(c.bl.blockFor(c.i))
	}
	return c.dec[c.i-c.base]
}

// Advance moves to the next posting.
func (c *Cursor) Advance() {
	c.i++
	if c.dead || c.i >= c.hi && len(c.rest) > 0 {
		c.settle()
	}
}

// loadBlock makes block b the cursor's current block: a window of the
// resident postings, or a decode into the scratch buffer. Decoding never
// writes into resident postings, which concurrent readers share.
func (c *Cursor) loadBlock(b int) {
	c.base = c.bl.blockStart(b)
	if r := c.bl.resident; r != nil {
		end := c.bl.skips[b].End
		c.dec = r[c.base:end:end]
	} else {
		c.scratch = c.bl.decodeBlockFast(b, c.scratch[:0])
		c.dec = c.scratch
	}
	c.blk = b
}

// SeekPos advances the cursor to the first posting p at or after the
// current position with p.Doc > doc, or p.Doc == doc and p.Pos >= pos.
// The cursor never moves backward. A merged cursor skips whole parts that
// end before doc and seeks within the one part that can hold the target.
func (c *Cursor) SeekPos(doc storage.DocID, pos uint32) {
	c.seek(doc, pos)
	if !c.dead && len(c.rest) == 0 {
		return
	}
	for c.i >= c.hi && len(c.rest) > 0 {
		for len(c.rest) > 1 {
			if _, last := c.rest[0].span(); last >= doc {
				break
			}
			c.rest = c.rest[1:]
		}
		c.next()
		c.seek(doc, pos)
	}
	c.settle()
}

// seek is SeekPos within the current part.
func (c *Cursor) seek(doc storage.DocID, pos uint32) {
	if c.i >= c.hi {
		return
	}
	ge := func(p Posting) bool {
		return p.Doc > doc || (p.Doc == doc && p.Pos >= pos)
	}
	if c.bl == nil {
		c.i += sort.Search(c.hi-c.i, func(k int) bool { return ge(c.raw[c.i+k]) })
		return
	}
	skips := c.bl.skips
	before := func(k int) bool {
		return skips[k].LastDoc < doc || (skips[k].LastDoc == doc && skips[k].LastPos < pos)
	}
	// First block, at or after the one holding c.i, whose final posting
	// is not before the target — found on the skip table alone, galloping
	// forward from the cursor's block and then binary-searching the bracket.
	lo := c.blk
	if lo < 0 || c.i >= c.base+len(c.dec) {
		lo = c.bl.blockFor(c.i)
	}
	hi := lo
	for step := 1; hi < len(skips) && before(hi); step <<= 1 {
		lo, hi = hi+1, min(hi+step, len(skips))
	}
	lo += sort.Search(hi-lo, func(k int) bool { return !before(lo + k) })
	if lo == len(skips) {
		c.i = c.hi
		return
	}
	if start := c.bl.blockStart(lo); start > c.i {
		c.i = start
	}
	if c.i >= c.hi {
		c.i = c.hi
		return
	}
	if c.blk != lo {
		c.loadBlock(lo)
	}
	// Gallop from the current offset, then binary search the bracketed
	// range — cheap for the short hops merge joins make.
	rel := c.i - c.base
	n := len(c.dec)
	if rel < n && ge(c.dec[rel]) {
		return
	}
	step := 1
	loR, hiR := rel, n
	for loR+step < n && !ge(c.dec[loR+step]) {
		loR += step
		step <<= 1
	}
	if loR+step < n {
		hiR = loR + step + 1
	}
	j := loR + sort.Search(hiR-loR, func(k int) bool { return ge(c.dec[loR+k]) })
	c.i = c.base + j
	if c.i > c.hi {
		c.i = c.hi
	}
}
