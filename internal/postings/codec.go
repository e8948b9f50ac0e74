package postings

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"

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

	// resident is the whole list decoded, kept for very high-frequency
	// terms (see resident.go). Attached by MaybeResident strictly before
	// the list is published to readers and never written after; nil for
	// the overwhelming majority of terms.
	resident []Posting
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
	bl := &BlockList{n: len(ps), nodeFreq: nodeFreqOf(ps)}
	var w blockWriter
	for start := 0; start < len(ps); start += BlockSize {
		end := min(start+BlockSize, len(ps))
		if start > 0 && ps[start].Less(ps[start-1]) {
			panic(fmt.Sprintf("postings: Encode on unsorted input at index %d", start))
		}
		var sk Skip
		bl.buf, sk = w.appendBlock(bl.buf, ps[start:end])
		sk.End = uint32(end)
		bl.skips = append(bl.skips, sk)
	}
	return bl
}

// blockWriter is the stream scratch appendBlock reuses across blocks.
type blockWriter struct{ doc, node, pos, off []byte }

// appendBlock appends the payload of blk, one block of sorted postings, to
// buf, and returns it with the block's skip entry (End left zero). It is
// the one block encoder: Encode writes with it and NewBlockList checks
// every restored block against it.
func (w *blockWriter) appendBlock(buf []byte, blk []Posting) ([]byte, Skip) {
	doc, node, pos, off := w.doc[:0], w.node[:0], w.pos[:0], w.off[:0]
	prev := Posting{Doc: blk[0].Doc}
	var maxFreq, runFreq uint32
	for i, p := range blk {
		if p.Less(prev) {
			panic(fmt.Sprintf("postings: unsorted postings at index %d of a block", i))
		}
		doc = binary.AppendUvarint(doc, uint64(p.Doc-prev.Doc))
		if i == 0 || p.Doc != prev.Doc {
			node = appendZigzag(node, int64(p.Node))
			pos = binary.AppendUvarint(pos, uint64(p.Pos))
			runFreq = 1
		} else {
			node = appendZigzag(node, int64(p.Node)-int64(prev.Node))
			pos = binary.AppendUvarint(pos, uint64(p.Pos-prev.Pos))
			runFreq++
		}
		maxFreq = max(maxFreq, runFreq)
		off = binary.AppendUvarint(off, uint64(p.Offset))
		prev = p
	}
	w.doc, w.node, w.pos, w.off = doc, node, pos, off
	sk := Skip{FirstDoc: blk[0].Doc, LastDoc: prev.Doc, LastPos: prev.Pos, MaxFreq: maxFreq, Off: uint32(len(buf))}
	buf = binary.AppendUvarint(buf, uint64(len(doc)))
	buf = binary.AppendUvarint(buf, uint64(len(node)))
	buf = binary.AppendUvarint(buf, uint64(len(pos)))
	return append(append(append(append(buf, doc...), node...), pos...), off...), sk
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
// copied). A block is valid only if it is exactly what Encode writes for
// the postings it decodes to: after the skip table's structure and each
// block's stream framing are checked, the block is decoded, its postings
// are checked for (Doc, Pos) order and range, and it is re-encoded and
// compared byte for byte, with its skip entry. So the lazy cursor decode
// downstream operates on proven-good bytes. MaxFreq entries are
// recomputed rather than trusted.
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
	sc := restoreScratchPool.Get().(*restoreScratch)
	defer restoreScratchPool.Put(sc)
	prev := Posting{Doc: -1}
	for i := range skips {
		data, cnt := bl.blockBytes(i), int(skips[i].End)-bl.blockStart(i)
		// Framing first: with every stream holding exactly cnt short
		// varints, decodeBlockFast cannot read out of range.
		s, ok := split(data)
		if !ok {
			return nil, fmt.Errorf("postings: block %d stream lengths overrun its %d bytes: %w", i, len(data), ErrCorrupt)
		}
		for k := range s {
			if !shortVarints(s[k], cnt) {
				return nil, fmt.Errorf("postings: block %d stream %d does not hold %d varints: %w", i, k, cnt, ErrCorrupt)
			}
		}
		sc.dec = bl.decodeBlockFast(i, sc.dec[:0])
		for j, p := range sc.dec {
			if p.Less(prev) || p.Doc < 0 || p.Doc == math.MaxInt32 || p.Node < 0 {
				return nil, fmt.Errorf("postings: block %d posting %d out of (doc, pos) order or range: %w", i, j, ErrCorrupt)
			}
			if p.Doc != prev.Doc || p.Node != prev.Node {
				bl.nodeFreq++
			}
			prev = p
		}
		// Canonical re-encoding: overflowing gaps, values that wrapped when
		// narrowed, padded varints, a nonzero first gap and a wrong last
		// document or position all change the bytes or the skip entry.
		var sk Skip
		sc.enc, sk = sc.w.appendBlock(sc.enc[:0], sc.dec)
		if want := skips[i]; !bytes.Equal(sc.enc, data) || sk.FirstDoc != want.FirstDoc || sk.LastDoc != want.LastDoc || sk.LastPos != want.LastPos {
			return nil, fmt.Errorf("postings: block %d is not the encoding of the postings it decodes to: %w", i, ErrCorrupt)
		}
		skips[i].MaxFreq = sk.MaxFreq
	}
	return bl, nil
}

// restoreScratch is the decode and re-encode scratch NewBlockList checks
// blocks with. A snapshot open restores every term of every segment, so
// the scratch is pooled across lists rather than grown anew for each.
type restoreScratch struct {
	w   blockWriter
	enc []byte
	dec []Posting
}

var restoreScratchPool = sync.Pool{New: func() any { return new(restoreScratch) }}

// split cuts a block payload into its four streams after the three
// stream-length headers, reporting false when a header is malformed or the
// streams overrun the payload.
func split(data []byte) (s [4][]byte, ok bool) {
	var lens [3]uint64
	o := 0
	for k := range lens {
		v, n := binary.Uvarint(data[o:])
		if n <= 0 {
			return s, false
		}
		lens[k], o = v, o+n
	}
	for k, l := range lens {
		if l > uint64(len(data)-o) {
			return s, false
		}
		s[k], o = data[o:o+int(l)], o+int(l)
	}
	s[3] = data[o:]
	return s, true
}

// streams returns the four streams of validated block i.
func (b *BlockList) streams(i int) [4][]byte {
	s, _ := split(b.blockBytes(i))
	return s
}

// shortVarints reports whether s is exactly n uvarints of at most five
// bytes each, the widest a 32-bit value needs.
func shortVarints(s []byte, n int) bool {
	run := 0
	for _, c := range s {
		if c < 0x80 {
			n, run = n-1, 0
		} else if run++; run == 5 {
			return false
		}
	}
	return n == 0 && run == 0
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

// decodeDocs decodes only block i's document stream, appending one DocID
// per posting to dst — the cheap scan top-k counting and range boundary
// resolution use.
func (b *BlockList) decodeDocs(i int, dst []storage.DocID) []storage.DocID {
	sk := b.skips[i]
	count := int(sk.End) - b.blockStart(i)
	docS := b.streams(i)[0]
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

// appendDocCounts is List.AppendDocCounts over the posting window
// [from, to) of b without resident postings: it decodes only the document
// streams of the blocks overlapping both the window and [lo, hi). A
// document spanning two blocks extends the run the first one appended.
func (b *BlockList) appendDocCounts(lo, hi storage.DocID, from, to int, dst []DocCount) []DocCount {
	// First block that can contain lo, not before the window's first.
	i := max(b.blockFor(from), sort.Search(len(b.skips), func(k int) bool { return b.skips[k].LastDoc >= lo }))
	var buf [BlockSize]storage.DocID
	n := len(dst)
	for ; i < len(b.skips) && b.skips[i].FirstDoc < hi && b.blockStart(i) < to; i++ {
		start := b.blockStart(i)
		for k, d := range b.decodeDocs(i, buf[:0]) {
			switch {
			case d < lo || start+k < from: // not yet in range
			case d >= hi || start+k >= to:
				return dst
			case len(dst) > n && dst[len(dst)-1].Doc == d:
				dst[len(dst)-1].N++
			default:
				dst = append(dst, DocCount{d, 1})
			}
		}
	}
	return dst
}

// appendZigzag appends v in zigzag varint encoding.
func appendZigzag(b []byte, v int64) []byte {
	return binary.AppendUvarint(b, uint64((v<<1)^(v>>63)))
}
