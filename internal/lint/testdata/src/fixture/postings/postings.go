// Package postings mirrors the real block-compressed postings package's
// accessor shape so guardcheck's receiver-type matching works against the
// fixture module: Cursor methods step through (and lazily decode) blocks,
// List methods decode whole lists.
package postings

// Posting is a minimal posting record.
type Posting struct {
	Doc int32
	Pos uint32
}

// List is a decoded-on-demand postings view.
type List struct {
	ps []Posting
}

// NewList wraps ps.
func NewList(ps []Posting) List { return List{ps: ps} }

// Len reports the posting count without decoding; uncharged.
func (l List) Len() int { return len(l.ps) }

// Materialize decodes the whole list; charged.
func (l List) Materialize() []Posting { return l.ps }

// DocCount is a document and its posting count.
type DocCount struct {
	Doc int32
	N   int
}

// AppendDocCounts decodes per-document frequencies onto dst; charged.
func (l List) AppendDocCounts(dst []DocCount) []DocCount {
	for _, p := range l.ps {
		if n := len(dst); n > 0 && dst[n-1].Doc == p.Doc {
			dst[n-1].N++
		} else {
			dst = append(dst, DocCount{p.Doc, 1})
		}
	}
	return dst
}

// Cursor steps through a list, decoding blocks lazily.
type Cursor struct {
	l List
	i int
}

// NewCursor returns a cursor positioned at the first posting.
func NewCursor(l List) *Cursor { return &Cursor{l: l} }

// Valid reports whether the cursor is positioned on a posting; uncharged.
func (c *Cursor) Valid() bool { return c.i < len(c.l.ps) }

// Cur returns the current posting; charged (it may decode a block).
func (c *Cursor) Cur() Posting { return c.l.ps[c.i] }

// Advance steps to the next posting; charged.
func (c *Cursor) Advance() { c.i++ }

// SeekPos skips forward to the first posting at or past pos; charged.
func (c *Cursor) SeekPos(pos uint32) {
	for c.i < len(c.l.ps) && c.l.ps[c.i].Pos < pos {
		c.i++
	}
}
