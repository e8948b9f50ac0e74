package postings

import (
	"fmt"
	"math/bits"

	"repro/internal/storage"
)

// This file adds the LSM read path: a merged List view that unions the
// postings of several underlying views (immutable block segments plus
// in-memory memtable runs) behind the exact cursor contract of a single
// list, with tombstone filtering applied during the merge so deleted
// documents vanish from every operator without the operators changing.
//
// Segments produced by the live index cover disjoint, ascending document
// ranges (document ids are allocated monotonically and never reused), so
// the k-way merge is effectively a concatenation with cheap min-scans; the
// implementation nevertheless handles arbitrary interleaving, which the
// fuzz target exercises.

// Tombstones is an immutable set of deleted documents: a bitset over
// document ids, which the store allocates densely from zero, so membership
// is one word test. A nil *Tombstones is a valid empty set. Mutation is
// copy-on-write (WithDead), so readers holding a snapshot never observe
// changes.
type Tombstones struct {
	words []uint64 // bit d&63 of words[d>>6] is set when document d is dead
	n     int      // set bits
}

// NewTombstones returns a set containing ids (nil when ids is empty).
func NewTombstones(ids ...storage.DocID) *Tombstones {
	return (*Tombstones)(nil).WithDead(ids...)
}

// Dead reports whether doc is tombstoned. Safe on a nil receiver.
func (t *Tombstones) Dead(doc storage.DocID) bool {
	if t == nil || doc < 0 {
		return false
	}
	w := int(doc >> 6)
	return w < len(t.words) && t.words[w]&(1<<(uint(doc)&63)) != 0
}

// DeadIn reports whether any document in [lo, hi) is tombstoned. Safe on a
// nil receiver.
func (t *Tombstones) DeadIn(lo, hi storage.DocID) bool {
	if t == nil {
		return false
	}
	a, b := max(int(lo), 0), min(int(hi), len(t.words)<<6)
	for a < b {
		word := t.words[a>>6] >> (a & 63) // bits a, a+1, … of a's word
		if n := b - a; n < 64 {
			word &= 1<<n - 1
		}
		if word != 0 {
			return true
		}
		a = (a>>6 + 1) << 6
	}
	return false
}

// Len returns the number of tombstoned documents. Safe on a nil receiver.
func (t *Tombstones) Len() int {
	if t == nil {
		return 0
	}
	return t.n
}

// WithDead returns a set additionally containing ids. The receiver is not
// modified; when ids adds nothing new the receiver is returned unchanged.
// Document ids are never negative; a negative id is a caller bug and
// panics.
func (t *Tombstones) WithDead(ids ...storage.DocID) *Tombstones {
	top := -1 // largest id not yet in the set
	for _, id := range ids {
		if id < 0 {
			panic(fmt.Sprintf("postings: tombstone for negative document id %d", id))
		}
		if !t.Dead(id) {
			top = max(top, int(id))
		}
	}
	if top < 0 {
		return t
	}
	var old []uint64
	out := &Tombstones{}
	if t != nil {
		old, out.n = t.words, t.n
	}
	out.words = make([]uint64, max(len(old), top>>6+1))
	copy(out.words, old)
	for _, id := range ids {
		w, bit := id>>6, uint64(1)<<(uint(id)&63)
		if out.words[w]&bit == 0 {
			out.words[w] |= bit
			out.n++
		}
	}
	return out
}

// IDs returns the tombstoned documents in ascending order.
func (t *Tombstones) IDs() []storage.DocID {
	if t == nil {
		return nil
	}
	out := make([]storage.DocID, 0, t.n)
	for w, word := range t.words {
		for ; word != 0; word &= word - 1 {
			out = append(out, storage.DocID(w<<6+bits.TrailingZeros64(word)))
		}
	}
	return out
}

// Union returns a view over the (Doc, Pos)-ordered union of parts with
// documents in tomb filtered out. Empty parts are dropped and nested
// unions with a compatible tombstone set are flattened; a single surviving
// part with no tombstones is returned directly, so a live index that has
// seen no mutations keeps the flat single-part cursors of a static one.
//
// Under tombstones, Len and Remaining count suppressed postings too — they
// become upper bounds, which is the same contract the block-max view
// (BlockMax) assumes of its statistics.
func Union(tomb *Tombstones, parts ...List) List {
	kept := make([]List, 0, len(parts))
	for _, p := range parts {
		if p.Len() == 0 {
			continue
		}
		if p.sub != nil && (p.tomb == nil || p.tomb == tomb) {
			kept = append(kept, p.sub...)
			continue
		}
		kept = append(kept, p)
	}
	if tomb.Len() == 0 {
		tomb = nil
	}
	switch {
	case len(kept) == 0:
		return List{}
	case len(kept) == 1 && tomb == nil:
		return kept[0]
	}
	return List{sub: kept, tomb: tomb, ordered: ascending(kept)}
}

// ascending reports whether non-empty parts cover disjoint document ranges
// in ascending order. The live index's segments and memtable runs always
// do: document ids are allocated monotonically and never reused.
func ascending(parts []List) bool {
	prev := storage.DocID(-1)
	for _, p := range parts {
		first, last := p.span()
		if first <= prev {
			return false
		}
		prev = last
	}
	return true
}

// mergedLen sums the part sizes (an upper bound under tombstones).
func (l List) mergedLen() int {
	n := 0
	for _, p := range l.sub {
		n += p.Len()
	}
	return n
}

// mergedCursor builds the k-way merge cursor and settles it on the first
// live posting.
func (l List) mergedCursor() *Cursor {
	subs := make([]*Cursor, len(l.sub))
	for i, p := range l.sub {
		subs[i] = p.Cursor()
	}
	c := &Cursor{subs: subs, tomb: l.tomb}
	c.settle()
	return c
}

// mergedRange narrows every part and re-unions. The tombstone set is kept
// only when a dead document falls in [lo, hi), so a window inside one part
// with no deletions — top-k's per-document Range — comes back as that
// part's flat view rather than a merge cursor testing every posting.
func (l List) mergedRange(lo, hi storage.DocID) List {
	tomb := l.tomb
	if !tomb.DeadIn(lo, hi) {
		tomb = nil
	}
	// The overlapping parts; nothing is allocated while at most one part
	// overlaps, the per-document case.
	var one List
	var parts []List
	for _, p := range l.sub {
		r := p.Range(lo, hi)
		switch {
		case r.Len() == 0:
		case one.Len() == 0:
			one = r
		default:
			if parts == nil {
				parts = append(make([]List, 0, len(l.sub)), one)
			}
			parts = append(parts, r)
		}
	}
	if parts == nil {
		if tomb == nil {
			return one
		}
		parts = []List{one}
	}
	return Union(tomb, parts...)
}

// mergedDocCounts is DocCounts over a merged view.
func (l List) mergedDocCounts(lo, hi storage.DocID, fn func(doc storage.DocID, n int) error) error {
	if !l.ordered {
		// Interleaved parts: count document runs off the merge cursor, which
		// already filters tombstones.
		return countRuns(l.Range(lo, hi).Cursor(), fn)
	}
	if l.tomb.DeadIn(lo, hi) {
		report := fn
		fn = func(doc storage.DocID, n int) error {
			if l.tomb.Dead(doc) {
				return nil
			}
			return report(doc, n)
		}
	}
	// Disjoint ascending parts: each document lives in exactly one part, and
	// the parts come in document order.
	for _, p := range l.sub {
		if err := p.DocCounts(lo, hi, fn); err != nil {
			return err
		}
	}
	return nil
}

// countRuns calls fn with each document's run length on c, in order.
func countRuns(c *Cursor, fn func(doc storage.DocID, n int) error) error {
	doc, n := storage.DocID(-1), 0
	for ; c.Valid(); c.Advance() {
		if d := c.Cur().Doc; d != doc {
			if n > 0 {
				if err := fn(doc, n); err != nil {
					return err
				}
			}
			doc, n = d, 0
		}
		n++
	}
	if n > 0 {
		return fn(doc, n)
	}
	return nil
}

// mergedMaterialize drains the merge cursor into a fresh slice.
func (l List) mergedMaterialize() []Posting {
	out := make([]Posting, 0, l.mergedLen())
	for c := l.mergedCursor(); c.Valid(); c.Advance() {
		out = append(out, c.Cur())
	}
	return out
}

// Each calls fn for every posting in the view in (Doc, Pos) order,
// stopping early when fn returns false. It is the bulk consumption path
// for merged views: unlike Materialize it never allocates the full slice,
// and tombstoned documents are already filtered out.
func (l List) Each(fn func(Posting) bool) {
	for c := l.Cursor(); c.Valid(); c.Advance() {
		if !fn(c.Cur()) {
			return
		}
	}
}

// settle positions the merge cursor on the minimum live posting across the
// sub-cursors, skipping whole tombstoned documents via SeekPos so a dead
// run costs one skip-table seek per sub-cursor instead of a posting-by-
// posting walk.
func (c *Cursor) settle() {
	for {
		best := -1
		for i, s := range c.subs {
			if !s.Valid() {
				continue
			}
			if best < 0 || s.Cur().Less(c.subs[best].Cur()) {
				best = i
			}
		}
		c.cur = best
		if best < 0 {
			return
		}
		doc := c.subs[best].Cur().Doc
		if !c.tomb.Dead(doc) {
			return
		}
		for _, s := range c.subs {
			if s.Valid() && s.Cur().Doc <= doc {
				s.SeekPos(doc+1, 0)
			}
		}
	}
}

func (c *Cursor) mergedValid() bool { return c.cur >= 0 }

func (c *Cursor) mergedCur() Posting { return c.subs[c.cur].Cur() }

func (c *Cursor) mergedAdvance() {
	if c.cur < 0 {
		return
	}
	c.subs[c.cur].Advance()
	c.settle()
}

// mergedRemaining sums the sub-cursor remainders — exact without
// tombstones, an upper bound with them.
func (c *Cursor) mergedRemaining() int {
	n := 0
	for _, s := range c.subs {
		n += s.Remaining()
	}
	return n
}

func (c *Cursor) mergedSeekPos(doc storage.DocID, pos uint32) {
	if c.cur < 0 {
		return
	}
	for _, s := range c.subs {
		s.SeekPos(doc, pos)
	}
	c.settle()
}
