package postings

import (
	"sort"

	"repro/internal/storage"
)

// Resident dense lists (DESIGN.md §15): the very high-frequency terms —
// the ones whose cursors the merge operators drive hardest — keep their
// postings decoded in memory, decoded once before the list is published.
// The cursor reads them through the same skip-table block path as every
// other list, so a block load is a slice of the resident postings instead
// of a decode.
//
// The resident postings are an accelerator over the encoded payload, which
// stays authoritative: persistence writes the payload verbatim and
// block-max pruning reads the skip table. Adoption must happen before the
// BlockList is published to readers — Build, RestoreBlocks and the fold
// call MaybeResident while they still own the list exclusively — and the
// resident slice is never written after that.

const (
	// ResidentMinPostings is the posting-count floor below which a list
	// never keeps its postings resident: short lists decode in a block or
	// two and the resident copy would be all cost, no win.
	ResidentMinPostings = 4096
	// ResidentMaxSpread bounds sparsity: adopt only when the spanned
	// document range is at most this multiple of the distinct-document
	// count, i.e. at least 1/ResidentMaxSpread of the documents in the span
	// contain the term.
	ResidentMaxSpread = 8
)

// MaybeResident decodes the whole list into memory if it qualifies
// (ResidentMinPostings, ResidentMaxSpread), reporting whether it did. It
// must only be called while the caller still owns the BlockList
// exclusively — i.e. before the list is reachable by any concurrent
// reader; the index build, snapshot-restore and compaction-fold paths
// satisfy this.
func (b *BlockList) MaybeResident() bool {
	if b == nil || b.n < ResidentMinPostings || b.resident != nil {
		return false
	}
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
	span := int64(b.skips[len(b.skips)-1].LastDoc-b.skips[0].FirstDoc) + 1
	if span > int64(distinct)*ResidentMaxSpread {
		return false
	}
	b.resident = b.decodeAll()
	return true
}

// decodeAll decodes every block of the list into one fresh slice.
func (b *BlockList) decodeAll() []Posting {
	ps := make([]Posting, 0, b.n)
	for i := range b.skips {
		ps = b.decodeBlockFast(i, ps)
	}
	return ps
}

// HasResident reports whether the list keeps its postings resident.
func (b *BlockList) HasResident() bool { return b != nil && b.resident != nil }

// ResidentBytes returns the size of the resident postings, zero when
// absent — the per-representation accounting MemStats reports.
func (b *BlockList) ResidentBytes() int {
	if b == nil {
		return 0
	}
	return len(b.resident) * rawPostingBytes
}

// docBounds returns the indexes in the (Doc, Pos)-sorted ps of the first
// postings with Doc >= lo and with Doc >= hi, len(ps) for none.
func docBounds(ps []Posting, lo, hi storage.DocID) (int, int) {
	a := sort.Search(len(ps), func(i int) bool { return ps[i].Doc >= lo })
	return a, a + sort.Search(len(ps)-a, func(i int) bool { return ps[a+i].Doc >= hi })
}
