package postings

import (
	"encoding/binary"

	"repro/internal/storage"
)

// Batch block decode: the one full-block decoder, which every cursor,
// AppendTo, resident list and NewBlockList's validation decodes through.
//
// One merged loop walks all four streams in lockstep with plain integer
// offsets, and the varint read is a tiny inlinable helper whose single-byte
// case — the overwhelming majority of deltas — never leaves the caller's
// frame. It has no error path: NewBlockList proves each stream holds
// exactly its count of short varints before the first decode, and then
// that the block is the canonical encoding of what it decoded to.

// uv decodes one uvarint at data[o]. The single-byte case is small enough
// for the inliner, so hot decode loops pay one bounds check and one compare
// per delta; multi-byte varints take the outlined slow path. Callers must
// have validated the stream (uv has no error return).
func uv(data []byte, o int) (uint64, int) {
	if b := data[o]; b < 0x80 {
		return uint64(b), 1
	}
	return uvSlow(data, o)
}

// uvSlow is the multi-byte continuation of uv, outlined to keep uv under
// the inlining budget.
func uvSlow(data []byte, o int) (uint64, int) {
	v, n := binary.Uvarint(data[o:])
	if n <= 0 {
		panic("postings: validated stream has malformed varint")
	}
	return v, n
}

// decodeBlockFast decodes block i into dst in one merged pass over the four
// streams. It assumes the block's framing is sound (Encode writes it so;
// NewBlockList checks it before decoding), so structural errors are
// impossible and values are narrowed to int32/uint32 unchecked — the
// re-encoding NewBlockList does afterwards catches any that wrapped. A
// malformed block here is a corrupted-memory-level invariant violation,
// not bad input, and surfaces as a panic from the decoder itself.
func (b *BlockList) decodeBlockFast(i int, dst []Posting) []Posting {
	sk := b.skips[i]
	count := int(sk.End) - b.blockStart(i)
	st := b.streams(i)
	docS, nodeS, posS, offS := st[0], st[1], st[2], st[3]

	base := len(dst)
	dst = append(dst, make([]Posting, count)...)
	out := dst[base : base+count : base+count]

	doc := uint64(sk.FirstDoc)
	var node int64
	var pos uint64
	do, no, po, oo := 0, 0, 0, 0
	for j := range out {
		gap, n := uv(docS, do)
		do += n
		zzn, n := uv(nodeS, no)
		no += n
		pv, n := uv(posS, po)
		po += n
		ov, n := uv(offS, oo)
		oo += n
		nd := int64(zzn>>1) ^ -int64(zzn&1)
		if gap != 0 || j == 0 {
			// Document change: node and position restart absolute.
			doc += gap
			node = nd
			pos = pv
		} else {
			node += nd
			pos += pv
		}
		out[j] = Posting{
			Doc:    storage.DocID(doc),
			Node:   int32(node),
			Pos:    uint32(pos),
			Offset: uint32(ov),
		}
	}
	return dst
}
