// Package postings implements the block-compressed posting-list storage
// the inverted index (internal/index) is built on.
//
// A posting list is immutable once encoded: postings are grouped into
// fixed-size blocks of BlockSize entries, each block delta+varint encoded
// as four columnar streams (document gaps, node deltas, position gaps,
// offsets) so that document-only scans never pay for full decode. A
// per-block skip entry carries the block's document range, last position,
// byte offset and cumulative posting count — enough to seek without
// touching the payload — plus the block's maximum per-document occurrence
// count, the block-max statistic top-k pruning consults to skip blocks
// that cannot beat the current k-th score.
//
// Cursors decode lazily, one block at a time, and preserve the exact
// Valid/Cur/Advance/SeekPos contract of the uncompressed
// cursor, so the merge-based access methods of internal/exec run
// unchanged over either representation.
package postings

import "repro/internal/storage"

// Posting is one occurrence of a term.
type Posting struct {
	Doc    storage.DocID
	Node   int32  // ordinal of the containing text node
	Pos    uint32 // absolute word position (region-encoding key space)
	Offset uint32 // word offset within the text node
}

// Less orders postings by (Doc, Pos) — document order.
func (p Posting) Less(q Posting) bool {
	if p.Doc != q.Doc {
		return p.Doc < q.Doc
	}
	return p.Pos < q.Pos
}

// BlockSize is the number of postings per encoded block. 128 keeps the
// skip table small (one entry per 2 KiB of raw postings) while a full
// block decode stays within one cache-friendly burst.
const BlockSize = 128

// rawPostingBytes is the in-memory footprint of one uncompressed Posting,
// the baseline compression ratios are reported against.
const rawPostingBytes = 16

// skipEntryBytes is the in-memory footprint of one Skip entry.
const skipEntryBytes = 24

// Skip is the per-block skip-table entry: everything a seek or a top-k
// bound needs to know about a block without decoding it.
type Skip struct {
	// FirstDoc and LastDoc bound the documents in the block (inclusive).
	FirstDoc storage.DocID
	LastDoc  storage.DocID
	// LastPos is the position of the block's final posting, so a
	// (doc, pos) seek can decide block membership exactly.
	LastPos uint32
	// MaxFreq is the maximum number of postings any single document
	// contributes within this block — the block-max statistic. A document
	// spanning several blocks is bounded by the sum of their MaxFreqs.
	MaxFreq uint32
	// Off is the byte offset of the block's payload in the list buffer.
	Off uint32
	// End is the cumulative posting count through this block, so binary
	// search maps absolute posting indexes to blocks.
	End uint32
}
