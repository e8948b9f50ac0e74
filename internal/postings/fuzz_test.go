package postings

import (
	"encoding/binary"
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/storage"
)

// encodeFuzzInput serializes a block list into the self-describing byte
// format FuzzBlockDecode parses, so valid encodings can seed the corpus.
func encodeFuzzInput(bl *BlockList) []byte {
	var out []byte
	out = binary.AppendUvarint(out, uint64(bl.Len()))
	out = binary.AppendUvarint(out, uint64(bl.NumBlocks()))
	for _, sk := range bl.Skips() {
		out = binary.AppendUvarint(out, uint64(sk.FirstDoc))
		out = binary.AppendUvarint(out, uint64(sk.LastDoc))
		out = binary.AppendUvarint(out, uint64(sk.LastPos))
		out = binary.AppendUvarint(out, uint64(sk.MaxFreq))
		out = binary.AppendUvarint(out, uint64(sk.Off))
		out = binary.AppendUvarint(out, uint64(sk.End))
	}
	return append(out, bl.Payload()...)
}

// FuzzBlockDecode feeds arbitrary skip tables and payloads through
// NewBlockList: it must either reject them with ErrCorrupt or produce a
// list whose decode paths (Materialize, cursor iteration, DocCounts) are
// self-consistent — and it must never panic or allocate proportionally to
// claimed (rather than actual) sizes.
func FuzzBlockDecode(f *testing.F) {
	r := rand.New(rand.NewSource(11))
	for _, n := range []int{0, 1, BlockSize, 2*BlockSize + 7} {
		f.Add(encodeFuzzInput(Encode(genList(r, n))))
	}
	f.Add([]byte{})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01})

	f.Fuzz(func(t *testing.T, data []byte) {
		o := 0
		readUv := func() (uint64, bool) {
			if o >= len(data) {
				return 0, false
			}
			v, n := binary.Uvarint(data[o:])
			if n <= 0 {
				return 0, false
			}
			o += n
			return v, true
		}
		nPost, ok := readUv()
		if !ok || nPost > 1<<20 {
			return
		}
		nBlocks, ok := readUv()
		// A real table needs at least one posting per block; anything the
		// input cannot back with bytes is not worth allocating for.
		if !ok || nBlocks > nPost || nBlocks > uint64(len(data)) {
			return
		}
		skips := make([]Skip, 0, nBlocks)
		for i := uint64(0); i < nBlocks; i++ {
			var vs [6]uint64
			for j := range vs {
				v, ok := readUv()
				if !ok {
					return
				}
				vs[j] = v
			}
			skips = append(skips, Skip{
				FirstDoc: storage.DocID(int32(vs[0])),
				LastDoc:  storage.DocID(int32(vs[1])),
				LastPos:  uint32(vs[2]),
				MaxFreq:  uint32(vs[3]),
				Off:      uint32(vs[4]),
				End:      uint32(vs[5]),
			})
		}
		payload := data[o:]

		bl, err := NewBlockList(int(nPost), skips, payload)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("rejection not marked ErrCorrupt: %v", err)
			}
			return
		}
		// Accepted: every downstream decode must agree with itself.
		ps := bl.All().Materialize()
		if len(ps) != int(nPost) {
			t.Fatalf("accepted list materializes %d of %d postings", len(ps), nPost)
		}
		for i := 1; i < len(ps); i++ {
			if ps[i].Less(ps[i-1]) {
				t.Fatalf("accepted list out of order at %d", i)
			}
		}
		i := 0
		for c := bl.All().Cursor(); c.Valid(); c.Advance() {
			if c.Cur() != ps[i] {
				t.Fatalf("cursor posting %d = %+v, want %+v", i, c.Cur(), ps[i])
			}
			i++
		}
		if i != len(ps) {
			t.Fatalf("cursor streamed %d of %d postings", i, len(ps))
		}
		if len(ps) > 0 {
			total := 0
			err := bl.All().DocCounts(0, ps[len(ps)-1].Doc+1, func(d storage.DocID, n int) error {
				total += n
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if total != len(ps) {
				t.Fatalf("DocCounts covered %d of %d postings", total, len(ps))
			}
		}
	})
}

// parseFuzzBlockList decodes the FuzzBlockDecode input format into a
// validated BlockList, or nil if the bytes are rejected (shared by the
// decode and batch-differential fuzz targets).
func parseFuzzBlockList(t *testing.T, data []byte) *BlockList {
	o := 0
	readUv := func() (uint64, bool) {
		if o >= len(data) {
			return 0, false
		}
		v, n := binary.Uvarint(data[o:])
		if n <= 0 {
			return 0, false
		}
		o += n
		return v, true
	}
	nPost, ok := readUv()
	if !ok || nPost > 1<<20 {
		return nil
	}
	nBlocks, ok := readUv()
	if !ok || nBlocks > nPost || nBlocks > uint64(len(data)) {
		return nil
	}
	skips := make([]Skip, 0, nBlocks)
	for i := uint64(0); i < nBlocks; i++ {
		var vs [6]uint64
		for j := range vs {
			v, ok := readUv()
			if !ok {
				return nil
			}
			vs[j] = v
		}
		skips = append(skips, Skip{
			FirstDoc: storage.DocID(int32(vs[0])),
			LastDoc:  storage.DocID(int32(vs[1])),
			LastPos:  uint32(vs[2]),
			MaxFreq:  uint32(vs[3]),
			Off:      uint32(vs[4]),
			End:      uint32(vs[5]),
		})
	}
	bl, err := NewBlockList(int(nPost), skips, data[o:])
	if err != nil {
		if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("rejection not marked ErrCorrupt: %v", err)
		}
		return nil
	}
	return bl
}

// FuzzBatchDecode is the batch-vs-scalar differential: any list NewBlockList
// accepts must decode byte-identically through the batch fast path
// (mustDecodeBlock → decodeBlockFast) and the scalar oracle (decodeBlock),
// block by block, and the doc-only scan must agree with the doc column.
func FuzzBatchDecode(f *testing.F) {
	r := rand.New(rand.NewSource(23))
	for _, n := range []int{1, 3, BlockSize, 2*BlockSize + 7, 5 * BlockSize} {
		f.Add(encodeFuzzInput(Encode(genList(r, n))))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		bl := parseFuzzBlockList(t, data)
		if bl == nil || bl.Len() == 0 {
			return
		}
		var scalar, batch []Posting
		var docs []storage.DocID
		for i := 0; i < bl.NumBlocks(); i++ {
			var err error
			scalar, err = bl.decodeBlock(i, scalar[:0])
			if err != nil {
				t.Fatalf("scalar decode failed on accepted block %d: %v", i, err)
			}
			batch = bl.decodeBlockFast(i, batch[:0])
			if !reflect.DeepEqual(batch, scalar) {
				t.Fatalf("block %d: batch decode differs from scalar\n got %v\nwant %v", i, batch, scalar)
			}
			docs = bl.decodeDocs(i, docs[:0])
			if len(docs) != len(scalar) {
				t.Fatalf("block %d: decodeDocs returned %d of %d docs", i, len(docs), len(scalar))
			}
			for j := range docs {
				if docs[j] != scalar[j].Doc {
					t.Fatalf("block %d doc %d: decodeDocs %d, scalar %d", i, j, docs[j], scalar[j].Doc)
				}
			}
		}
	})
}
