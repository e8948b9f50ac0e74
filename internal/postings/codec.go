package postings

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sort"

	"repro/internal/storage"
)

// ErrCorrupt marks a block payload or skip table that fails validation.
// Test with errors.Is; the concrete errors name the first offending block.
var ErrCorrupt = errors.New("postings: corrupt block data")

// BlockList is one term's immutable block-compressed posting list: the
// concatenated block payloads plus the skip table. Construct with Encode
// (from sorted postings) or NewBlockList (from snapshot bytes, which
// validates every block so later cursor decodes cannot fail).
type BlockList struct {
	buf      []byte
	skips    []Skip
	n        int
	nodeFreq int // distinct (doc, node) pairs, computed while encoding/validating

	// bitmap is the optional dense representation for very high-frequency
	// terms (see bitmap.go). Attached by MaybeBitmap strictly before the
	// list is published to readers; nil for the overwhelming majority of
	// terms.
	bitmap *bitmapRep
}

// Block payload layout (per block, count postings known from the skip
// table):
//
//	uvarint docLen, uvarint nodeLen, uvarint posLen
//	docStream  docLen bytes:  per posting, uvarint gap from the previous
//	           document (the first gap, from Skip.FirstDoc, is zero)
//	nodeStream nodeLen bytes: per posting, zigzag varint — absolute node
//	           on a document change, delta from the previous node within
//	           a document run
//	posStream  posLen bytes:  per posting, uvarint — absolute position on
//	           a document change, gap from the previous position within a
//	           document run
//	offStream  (rest):        per posting, uvarint word offset
//
// The streams are columnar so a document-only scan (top-k counting,
// Range boundary resolution) decodes just the doc stream.

// Encode block-compresses a posting list. ps must be sorted by (Doc, Pos)
// — the builder and the validated restore path guarantee it — and is not
// retained. Encode panics on unsorted input: every caller validates or
// sorts first, so disorder here is a programming error, not bad data.
func Encode(ps []Posting) *BlockList {
	bl := &BlockList{n: len(ps)}
	if len(ps) == 0 {
		return bl
	}
	var docB, nodeB, posB, offB []byte
	for start := 0; start < len(ps); start += BlockSize {
		end := start + BlockSize
		if end > len(ps) {
			end = len(ps)
		}
		blk := ps[start:end]
		docB, nodeB, posB, offB = docB[:0], nodeB[:0], posB[:0], offB[:0]
		prev := Posting{Doc: blk[0].Doc}
		var maxFreq, runFreq uint32
		for i, p := range blk {
			if i > 0 && p.Less(prev) {
				panic(fmt.Sprintf("postings: Encode on unsorted input at index %d", start+i))
			}
			docB = binary.AppendUvarint(docB, uint64(p.Doc-prev.Doc))
			if i == 0 || p.Doc != prev.Doc {
				nodeB = appendZigzag(nodeB, int64(p.Node))
				posB = binary.AppendUvarint(posB, uint64(p.Pos))
				runFreq = 1
			} else {
				nodeB = appendZigzag(nodeB, int64(p.Node)-int64(prev.Node))
				posB = binary.AppendUvarint(posB, uint64(p.Pos-prev.Pos))
				runFreq++
			}
			if runFreq > maxFreq {
				maxFreq = runFreq
			}
			offB = binary.AppendUvarint(offB, uint64(p.Offset))
			prev = p
		}
		bl.skips = append(bl.skips, Skip{
			FirstDoc: blk[0].Doc,
			LastDoc:  prev.Doc,
			LastPos:  prev.Pos,
			MaxFreq:  maxFreq,
			Off:      uint32(len(bl.buf)),
			End:      uint32(end),
		})
		bl.buf = binary.AppendUvarint(bl.buf, uint64(len(docB)))
		bl.buf = binary.AppendUvarint(bl.buf, uint64(len(nodeB)))
		bl.buf = binary.AppendUvarint(bl.buf, uint64(len(posB)))
		bl.buf = append(bl.buf, docB...)
		bl.buf = append(bl.buf, nodeB...)
		bl.buf = append(bl.buf, posB...)
		bl.buf = append(bl.buf, offB...)
	}
	bl.nodeFreq = nodeFreqOf(ps)
	return bl
}

// nodeFreqOf counts distinct (doc, node) pairs over a sorted list by run
// transitions — node ordinals are non-decreasing within a document's
// position order, so adjacent comparison suffices.
func nodeFreqOf(ps []Posting) int {
	nf := 0
	lastDoc := storage.DocID(-1)
	lastNode := int32(-1)
	for _, p := range ps {
		if p.Doc != lastDoc || p.Node != lastNode {
			nf++
			lastDoc, lastNode = p.Doc, p.Node
		}
	}
	return nf
}

// NewBlockList reconstitutes a block list from snapshot data: n postings,
// the skip table, and the concatenated block payloads (adopted, not
// copied). Every block is structurally checked and fully decoded here —
// bad counts, offsets, stream lengths, overflowing deltas or disordered
// postings are rejected — so the lazy cursor decode downstream operates
// on proven-good bytes. MaxFreq entries are recomputed from the payload
// rather than trusted.
func NewBlockList(n int, skips []Skip, buf []byte) (*BlockList, error) {
	if n == 0 {
		if len(skips) != 0 || len(buf) != 0 {
			return nil, fmt.Errorf("postings: empty list with %d skips and %d payload bytes: %w", len(skips), len(buf), ErrCorrupt)
		}
		return &BlockList{}, nil
	}
	if len(skips) == 0 {
		return nil, fmt.Errorf("postings: %d postings but no blocks: %w", n, ErrCorrupt)
	}
	prevEnd := uint32(0)
	for i, sk := range skips {
		cnt := int(sk.End) - int(prevEnd)
		if cnt < 1 || cnt > BlockSize {
			return nil, fmt.Errorf("postings: block %d count %d outside [1, %d]: %w", i, cnt, BlockSize, ErrCorrupt)
		}
		if i == 0 && sk.Off != 0 {
			return nil, fmt.Errorf("postings: first block payload at offset %d: %w", sk.Off, ErrCorrupt)
		}
		if i > 0 && sk.Off <= skips[i-1].Off {
			return nil, fmt.Errorf("postings: block %d payload offset %d not after block %d: %w", i, sk.Off, i-1, ErrCorrupt)
		}
		if int(sk.Off) > len(buf) {
			return nil, fmt.Errorf("postings: block %d payload offset %d beyond %d payload bytes: %w", i, sk.Off, len(buf), ErrCorrupt)
		}
		prevEnd = sk.End
	}
	if int(prevEnd) != n {
		return nil, fmt.Errorf("postings: skip table covers %d of %d postings: %w", prevEnd, n, ErrCorrupt)
	}
	bl := &BlockList{buf: buf, skips: skips, n: n}
	// Full decode validation: the one pass that makes every later decode
	// infallible. It also recomputes the block-max statistics and the
	// node frequency, so a tampered skip table cannot skew scoring.
	var prev Posting
	first := true
	dec := make([]Posting, 0, BlockSize)
	lastDoc := storage.DocID(-1)
	lastNode := int32(-1)
	for i := range skips {
		var err error
		dec, err = bl.decodeBlock(i, dec[:0])
		if err != nil {
			return nil, err
		}
		var maxFreq, runFreq uint32
		for j, p := range dec {
			if !first && p.Less(prev) {
				return nil, fmt.Errorf("postings: block %d posting %d out of (doc, pos) order: %w", i, j, ErrCorrupt)
			}
			if j == 0 || p.Doc != prev.Doc {
				runFreq = 1
			} else {
				runFreq++
			}
			if runFreq > maxFreq {
				maxFreq = runFreq
			}
			if p.Doc != lastDoc || p.Node != lastNode {
				bl.nodeFreq++
				lastDoc, lastNode = p.Doc, p.Node
			}
			prev, first = p, false
		}
		skips[i].MaxFreq = maxFreq
	}
	return bl, nil
}

// Len returns the number of postings (nil-safe).
func (b *BlockList) Len() int {
	if b == nil {
		return 0
	}
	return b.n
}

// NumBlocks returns the block count (nil-safe).
func (b *BlockList) NumBlocks() int {
	if b == nil {
		return 0
	}
	return len(b.skips)
}

// Skips exposes the skip table for seek planning and block-max pruning.
// The returned slice must not be modified.
func (b *BlockList) Skips() []Skip {
	if b == nil {
		return nil
	}
	return b.skips
}

// Payload exposes the concatenated encoded block payloads, for snapshot
// writers that persist them verbatim. It must not be modified.
func (b *BlockList) Payload() []byte {
	if b == nil {
		return nil
	}
	return b.buf
}

// NodeFreq returns the number of distinct (doc, node) pairs in the list.
func (b *BlockList) NodeFreq() int {
	if b == nil {
		return 0
	}
	return b.nodeFreq
}

// PayloadBytes returns the encoded payload size in bytes.
func (b *BlockList) PayloadBytes() int {
	if b == nil {
		return 0
	}
	return len(b.buf)
}

// SkipBytes returns the in-memory size of the skip table.
func (b *BlockList) SkipBytes() int { return b.NumBlocks() * skipEntryBytes }

// RawBytes returns what the same postings cost uncompressed, the baseline
// compression ratios are reported against.
func (b *BlockList) RawBytes() int { return b.Len() * rawPostingBytes }

// blockStart returns the absolute index of block i's first posting.
func (b *BlockList) blockStart(i int) int {
	if i == 0 {
		return 0
	}
	return int(b.skips[i-1].End)
}

// blockBytes returns block i's payload slice.
func (b *BlockList) blockBytes(i int) []byte {
	if i+1 < len(b.skips) {
		return b.buf[b.skips[i].Off:b.skips[i+1].Off]
	}
	return b.buf[b.skips[i].Off:]
}

// blockFor returns the index of the block containing absolute posting
// index i (which must be in range).
func (b *BlockList) blockFor(i int) int {
	lo, hi := 0, len(b.skips)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if int(b.skips[mid].End) <= i {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// decodeBlock decodes block i's four streams into dst, returning the
// extended slice. All structural and range errors are reported; after
// NewBlockList/Encode has validated the list, decode cannot fail.
func (b *BlockList) decodeBlock(i int, dst []Posting) ([]Posting, error) {
	sk := b.skips[i]
	count := int(sk.End) - b.blockStart(i)
	data := b.blockBytes(i)
	o := 0
	var lens [3]int
	for s := range lens {
		v, n, err := uvarintAt(data, o, i)
		if err != nil {
			return nil, err
		}
		if v > uint64(len(data)) {
			return nil, fmt.Errorf("postings: block %d stream %d length %d exceeds %d payload bytes: %w", i, s, v, len(data), ErrCorrupt)
		}
		lens[s], o = int(v), o+n
	}
	if rem := len(data) - o; lens[0]+lens[1]+lens[2] > rem {
		return nil, fmt.Errorf("postings: block %d streams need %d of %d remaining bytes: %w", i, lens[0]+lens[1]+lens[2], rem, ErrCorrupt)
	}
	docS := data[o : o+lens[0]]
	nodeS := data[o+lens[0] : o+lens[0]+lens[1]]
	posS := data[o+lens[0]+lens[1] : o+lens[0]+lens[1]+lens[2]]
	offS := data[o+lens[0]+lens[1]+lens[2]:]

	base := len(dst)
	dst = append(dst, make([]Posting, count)...)
	out := dst[base:]

	// Document stream: cumulative gaps from FirstDoc; the first gap must
	// be zero so FirstDoc is authoritative.
	doc := uint64(sk.FirstDoc)
	if sk.FirstDoc < 0 || sk.FirstDoc > sk.LastDoc {
		return nil, fmt.Errorf("postings: block %d document range [%d, %d] invalid: %w", i, sk.FirstDoc, sk.LastDoc, ErrCorrupt)
	}
	o = 0
	for j := 0; j < count; j++ {
		gap, n, err := uvarintAt(docS, o, i)
		if err != nil {
			return nil, err
		}
		o += n
		if j == 0 && gap != 0 {
			return nil, fmt.Errorf("postings: block %d first document gap %d (want 0): %w", i, gap, ErrCorrupt)
		}
		doc += gap
		// Stay clear of the DocID ceiling so doc+1 range bounds cannot
		// overflow downstream.
		if doc >= math.MaxInt32 {
			return nil, fmt.Errorf("postings: block %d document id %d overflows: %w", i, doc, ErrCorrupt)
		}
		out[j].Doc = storage.DocID(doc)
	}
	if o != len(docS) {
		return nil, fmt.Errorf("postings: block %d document stream has %d trailing bytes: %w", i, len(docS)-o, ErrCorrupt)
	}
	if out[count-1].Doc != sk.LastDoc {
		return nil, fmt.Errorf("postings: block %d ends at document %d, skip says %d: %w", i, out[count-1].Doc, sk.LastDoc, ErrCorrupt)
	}

	// Node stream: absolute on document change, signed delta within a run.
	o = 0
	node := int64(0)
	for j := 0; j < count; j++ {
		d, n, err := zigzagAt(nodeS, o, i)
		if err != nil {
			return nil, err
		}
		o += n
		if j == 0 || out[j].Doc != out[j-1].Doc {
			node = d
		} else {
			node += d
		}
		if node < 0 || node > math.MaxInt32 {
			return nil, fmt.Errorf("postings: block %d node ordinal %d overflows: %w", i, node, ErrCorrupt)
		}
		out[j].Node = int32(node)
	}
	if o != len(nodeS) {
		return nil, fmt.Errorf("postings: block %d node stream has %d trailing bytes: %w", i, len(nodeS)-o, ErrCorrupt)
	}

	// Position stream: absolute on document change, gap within a run.
	o = 0
	pos := uint64(0)
	for j := 0; j < count; j++ {
		v, n, err := uvarintAt(posS, o, i)
		if err != nil {
			return nil, err
		}
		o += n
		if j == 0 || out[j].Doc != out[j-1].Doc {
			pos = v
		} else {
			pos += v
		}
		if pos > math.MaxUint32 {
			return nil, fmt.Errorf("postings: block %d position %d overflows: %w", i, pos, ErrCorrupt)
		}
		out[j].Pos = uint32(pos)
	}
	if o != len(posS) {
		return nil, fmt.Errorf("postings: block %d position stream has %d trailing bytes: %w", i, len(posS)-o, ErrCorrupt)
	}
	if out[count-1].Pos != sk.LastPos {
		return nil, fmt.Errorf("postings: block %d ends at position %d, skip says %d: %w", i, out[count-1].Pos, sk.LastPos, ErrCorrupt)
	}

	// Offset stream: raw uvarints, must consume the rest exactly.
	o = 0
	for j := 0; j < count; j++ {
		v, n, err := uvarintAt(offS, o, i)
		if err != nil {
			return nil, err
		}
		o += n
		if v > math.MaxUint32 {
			return nil, fmt.Errorf("postings: block %d offset %d overflows: %w", i, v, ErrCorrupt)
		}
		out[j].Offset = uint32(v)
	}
	if o != len(offS) {
		return nil, fmt.Errorf("postings: block %d offset stream has %d trailing bytes: %w", i, len(offS)-o, ErrCorrupt)
	}
	return dst, nil
}

// mustDecodeBlock is the post-validation decode path: Encode and
// NewBlockList prove every block decodable, so the batch decoder can skip
// the scalar path's structural checks entirely. A malformed block here is a
// corrupted-memory-level invariant violation, not bad input, and surfaces
// as a panic from the decoder itself.
func (b *BlockList) mustDecodeBlock(i int, dst []Posting) []Posting {
	return b.decodeBlockFast(i, dst)
}

// decodeDocs decodes only block i's document stream, appending one DocID
// per posting to dst — the cheap scan top-k counting and range boundary
// resolution use.
func (b *BlockList) decodeDocs(i int, dst []storage.DocID) []storage.DocID {
	sk := b.skips[i]
	count := int(sk.End) - b.blockStart(i)
	data := b.blockBytes(i)
	// Skip the three stream-length headers; the doc stream follows them.
	// The block is validated, so the unchecked reader is safe here.
	docLen, n0 := uv(data, 0)
	_, n1 := uv(data, n0)
	_, n2 := uv(data, n0+n1)
	hdr := n0 + n1 + n2
	docS := data[hdr : hdr+int(docLen)]
	o := 0
	doc := uint64(sk.FirstDoc)
	for j := 0; j < count; j++ {
		gap, n := uv(docS, o)
		o += n
		doc += gap
		dst = append(dst, storage.DocID(doc))
	}
	return dst
}

// docCounts is List.DocCounts over the posting window [from, to) of b:
// it decodes only the document streams of the blocks overlapping both the
// window and [lo, hi).
func (b *BlockList) docCounts(lo, hi storage.DocID, from, to int, fn func(doc storage.DocID, n int) error) error {
	if b.bitmap != nil && from == 0 && to == b.n {
		return b.bitmap.docCounts(lo, hi, fn)
	}
	// First block that can contain lo, not before the window's first.
	i := max(b.blockFor(from), sort.Search(len(b.skips), func(k int) bool { return b.skips[k].LastDoc >= lo }))
	var buf [BlockSize]storage.DocID
	docs := buf[:0]
	curDoc := storage.DocID(-1)
	cnt := 0
	for ; i < len(b.skips) && b.skips[i].FirstDoc < hi && b.blockStart(i) < to; i++ {
		start := b.blockStart(i)
		docs = b.decodeDocs(i, docs[:0])
		for k, d := range docs {
			if d < lo || start+k < from {
				continue
			}
			if d >= hi || start+k >= to {
				break
			}
			if d != curDoc {
				if cnt > 0 {
					if err := fn(curDoc, cnt); err != nil {
						return err
					}
				}
				curDoc, cnt = d, 0
			}
			cnt++
		}
	}
	if cnt > 0 {
		return fn(curDoc, cnt)
	}
	return nil
}

// appendZigzag appends v in zigzag varint encoding.
func appendZigzag(b []byte, v int64) []byte {
	return binary.AppendUvarint(b, uint64((v<<1)^(v>>63)))
}

// uvarintAt reads one uvarint from data at offset o, reporting block for
// error context.
func uvarintAt(data []byte, o, block int) (uint64, int, error) {
	if o >= len(data) {
		return 0, 0, fmt.Errorf("postings: block %d truncated at byte %d: %w", block, o, ErrCorrupt)
	}
	v, n := binary.Uvarint(data[o:])
	if n <= 0 {
		return 0, 0, fmt.Errorf("postings: block %d malformed varint at byte %d: %w", block, o, ErrCorrupt)
	}
	return v, n, nil
}

// zigzagAt reads one zigzag-encoded signed varint.
func zigzagAt(data []byte, o, block int) (int64, int, error) {
	u, n, err := uvarintAt(data, o, block)
	if err != nil {
		return 0, 0, err
	}
	return int64(u>>1) ^ -int64(u&1), n, nil
}
