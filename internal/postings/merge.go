package postings

import (
	"fmt"
	"math/bits"
	"slices"
	"sort"

	"repro/internal/storage"
)

// This file adds the LSM read path: a merged List view that unions the
// postings of several underlying views (immutable block segments plus
// in-memory memtable runs) behind the exact cursor contract of a single
// list, with tombstone filtering applied as the cursor walks so deleted
// documents vanish from every operator without the operators changing.
//
// The parts cover disjoint, ascending document ranges (Union enforces it),
// so the merged cursor is a concatenation: it walks one part at a time
// with that part's own block loads and skip-table seek, and tests tombstones
// only inside parts whose span holds a dead document.

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
// documents in tomb filtered out. The parts must cover disjoint document
// ranges in ascending order — the live index's segments and memtable runs
// always do, since document ids are allocated monotonically and never
// reused — and Union panics otherwise: like a negative id in WithDead,
// disorder is a caller bug. Spans are compared at block granularity, so two
// windows of one block list that share a block count as overlapping.
//
// Empty parts are dropped and nested unions with a compatible tombstone set
// are flattened. The tombstone set is kept only when a dead document falls
// inside the parts' hull, and a single surviving part without one is
// returned directly: a term whose postings avoid every deleted document
// keeps the flat single-part cursor of a static index.
//
// Under tombstones, Len counts suppressed postings too — it becomes an
// upper bound, which is the same contract the block-max view (BlockMax)
// assumes of its statistics.
//
// Union owns parts: when no part is itself merged, the view keeps the
// parts in parts' own backing array, so the caller must not reuse it.
func Union(tomb *Tombstones, parts ...List) List {
	kept := parts[:0]
	if slices.ContainsFunc(parts, func(p List) bool { return p.sub != nil }) {
		kept = make([]List, 0, len(parts))
	}
	for _, p := range parts {
		switch {
		case p.Len() == 0:
		case p.sub == nil:
			kept = append(kept, p)
		case p.tomb == nil || p.tomb == tomb:
			kept = append(kept, p.sub...)
		default:
			panic("postings: Union over a merged part with a different tombstone set")
		}
	}
	if len(kept) == 0 {
		return List{}
	}
	prev := storage.DocID(-1)
	for _, p := range kept {
		first, last := p.span()
		if first <= prev {
			panic(fmt.Sprintf("postings: Union parts overlap or are out of order: document %d after %d", first, prev))
		}
		prev = last
	}
	first, _ := kept[0].span()
	if !tomb.DeadIn(first, prev+1) {
		tomb = nil
	}
	if len(kept) == 1 && tomb == nil {
		return kept[0]
	}
	return List{sub: kept, tomb: tomb}
}

// mergedLen sums the part sizes (an upper bound under tombstones).
func (l List) mergedLen() int {
	n := 0
	for _, p := range l.sub {
		n += p.Len()
	}
	return n
}

// partsIn returns the parts of a merged view whose spans meet [lo, hi):
// the parts are disjoint and document-ascending, so they are found by
// binary search, and the others are never narrowed or scanned.
func (l List) partsIn(lo, hi storage.DocID) []List {
	i := sort.Search(len(l.sub), func(k int) bool { _, last := l.sub[k].span(); return last >= lo })
	j := i + sort.Search(len(l.sub)-i, func(k int) bool { first, _ := l.sub[i+k].span(); return first >= hi })
	return l.sub[i:j]
}

// mergedRange narrows the parts that meet [lo, hi) and re-unions. The
// tombstone set is kept only when a dead document falls in [lo, hi), so a
// window inside one part with no deletions comes back as that part's flat
// view, with nothing allocated.
func (l List) mergedRange(lo, hi storage.DocID) List {
	tomb, in := l.tomb, l.partsIn(lo, hi)
	if !tomb.DeadIn(lo, hi) {
		if tomb = nil; len(in) == 1 {
			return in[0].Range(lo, hi)
		}
	}
	parts := make([]List, len(in))
	for i, p := range in {
		parts[i] = p.Range(lo, hi)
	}
	return Union(tomb, parts...)
}

// mergedDocCounts is AppendDocCounts over a merged view: each document
// lives in exactly one part and the parts come in document order, so the
// parts are counted in turn, and the dead documents then dropped in place
// when a tombstone falls in [lo, hi).
func (l List) mergedDocCounts(lo, hi storage.DocID, dst []DocCount) []DocCount {
	n := len(dst)
	for _, p := range l.partsIn(lo, hi) {
		dst = p.AppendDocCounts(lo, hi, dst)
	}
	if !l.tomb.DeadIn(lo, hi) {
		return dst
	}
	live := dst[:n]
	for _, c := range dst[n:] {
		if !l.tomb.Dead(c.Doc) {
			live = append(live, c)
		}
	}
	return live
}

// appendRuns appends each document's run length in ps, in order.
func appendRuns(dst []DocCount, ps []Posting) []DocCount {
	for i, j := 0, 0; i < len(ps); i = j {
		for j = i + 1; j < len(ps) && ps[j].Doc == ps[i].Doc; j++ {
		}
		dst = append(dst, DocCount{ps[i].Doc, j - i})
	}
	return dst
}

// next moves a merged cursor onto the first posting of its next part,
// reusing the decode buffer, and decides whether that part needs the
// tombstone test.
func (c *Cursor) next() {
	p := c.rest[0]
	c.rest = c.rest[1:]
	c.open(p)
	first, last := p.span()
	c.dead = c.tomb.DeadIn(first, last+1)
}

// settle restores the merged cursor's invariant: on a live posting of the
// current part, or exhausted with no part left. An exhausted part hands
// over to the next one, and a dead document costs one seek past it.
func (c *Cursor) settle() {
	for {
		switch {
		case c.i >= c.hi:
			if len(c.rest) == 0 {
				return
			}
			c.next()
		case c.dead:
			doc := c.Cur().Doc
			if !c.tomb.Dead(doc) {
				return
			}
			c.seek(doc+1, 0)
		default:
			return
		}
	}
}
