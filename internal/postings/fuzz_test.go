package postings

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
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

// checkResidentMatches holds forced — plain with its block lists made
// resident — to plain: cursor walks, a SeekPos to (doc, pos) from a fresh
// cursor, the Range [lo, hi) and its cursor, AppendDocCounts over everything and
// over [lo, hi), and AppendTo of the view and of the window must agree.
func checkResidentMatches(t *testing.T, plain, forced List, doc storage.DocID, pos uint32, lo, hi storage.DocID) {
	t.Helper()
	same := func(what string, got, want []Posting) {
		t.Helper()
		if !reflect.DeepEqual(append([]Posting{}, got...), append([]Posting{}, want...)) {
			t.Fatalf("resident %s yields %d postings, decoded %d", what, len(got), len(want))
		}
	}
	same("walk", drain(forced.Cursor()), drain(plain.Cursor()))
	a, b := plain.Cursor(), forced.Cursor()
	a.SeekPos(doc, pos)
	b.SeekPos(doc, pos)
	same(fmt.Sprintf("SeekPos(%d, %d)", doc, pos), drain(b), drain(a))
	pw, fw := plain.Range(lo, hi), forced.Range(lo, hi)
	same(fmt.Sprintf("Range(%d, %d)", lo, hi), drain(fw.Cursor()), drain(pw.Cursor()))
	same("AppendTo", forced.AppendTo(nil), plain.AppendTo(nil))
	same(fmt.Sprintf("Range(%d, %d) AppendTo", lo, hi), fw.AppendTo(nil), pw.AppendTo(nil))
	for _, r := range [][2]storage.DocID{{0, math.MaxInt32}, {lo, hi}} {
		if got, want := docCounts(forced, r[0], r[1]), docCounts(plain, r[0], r[1]); !reflect.DeepEqual(got, want) {
			t.Fatalf("resident AppendDocCounts(%d, %d) = %v, decoded %v", r[0], r[1], got, want)
		}
	}
	checkAppendTo(t, "resident view", forced)
}

// FuzzBlockDecode feeds arbitrary skip tables and payloads through
// NewBlockList: it must either reject them with ErrCorrupt or produce a
// list whose decode paths (Materialize, cursor iteration, AppendDocCounts, and
// AppendTo of a window picked by the input's first and last bytes) are
// self-consistent, and whose forced resident copy reads the same — and it
// must never panic or allocate proportionally to claimed (rather than
// actual) sizes.
func FuzzBlockDecode(f *testing.F) {
	r := rand.New(rand.NewSource(11))
	for _, n := range []int{0, 1, BlockSize, 2*BlockSize + 7} {
		f.Add(encodeFuzzInput(Encode(genList(r, n))))
	}
	f.Add([]byte{})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01})

	f.Fuzz(func(t *testing.T, data []byte) {
		bl := parseFuzzBlockList(t, data)
		if bl == nil {
			return
		}
		// Accepted: every downstream decode must agree with itself.
		ps := bl.All().Materialize()
		if len(ps) != bl.Len() {
			t.Fatalf("accepted list materializes %d of %d postings", len(ps), bl.Len())
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
			for _, c := range bl.All().AppendDocCounts(0, ps[len(ps)-1].Doc+1, nil) {
				total += c.N
			}
			if total != len(ps) {
				t.Fatalf("AppendDocCounts covered %d of %d postings", total, len(ps))
			}
			a, b := int(data[0])%len(ps), int(data[len(data)-1])%len(ps)
			lo, hi := ps[min(a, b)].Doc, ps[max(a, b)].Doc+storage.DocID(b%2)
			w := bl.All().Range(lo, hi)
			want := []Posting{}
			for _, p := range ps {
				if p.Doc >= lo && p.Doc < hi {
					want = append(want, p)
				}
			}
			if got := drain(w.Cursor()); !reflect.DeepEqual(got, want) {
				t.Fatalf("Range(%d, %d) cursor yields %d postings, want %d", lo, hi, len(got), len(want))
			}
			checkAppendTo(t, fmt.Sprintf("Range(%d, %d)", lo, hi), w)
			checkResidentMatches(t, bl.All(), forceResident(bl).All(), lo, ps[b].Pos, lo, hi)
		}
	})
}

// parseFuzzBlockList decodes the FuzzBlockDecode input format — a posting
// count, a block count, six uvarints per skip entry, then the payload —
// into a validated BlockList, or nil if the bytes are rejected (shared by
// FuzzBlockDecode and FuzzBatchDecode).
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
	// A real table needs at least one posting per block; anything the
	// input cannot back with bytes is not worth allocating for.
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

// FuzzBatchDecode holds the one block decoder, decodeBlockFast, to Encode:
// any list NewBlockList accepts must be exactly what Encode writes for the
// postings decodeBlockFast reads out of it, block by block (payload, skip
// table with MaxFreq, and NodeFreq), and the doc-only scan must agree with
// the decoded doc column.
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
		var ps, blk []Posting
		var docs []storage.DocID
		for i := 0; i < bl.NumBlocks(); i++ {
			blk = bl.decodeBlockFast(i, blk[:0])
			ps = append(ps, blk...)
			docs = bl.decodeDocs(i, docs[:0])
			if len(docs) != len(blk) {
				t.Fatalf("block %d: decodeDocs returned %d of %d docs", i, len(docs), len(blk))
			}
			for j := range docs {
				if docs[j] != blk[j].Doc {
					t.Fatalf("block %d doc %d: decodeDocs %d, batch %d", i, j, docs[j], blk[j].Doc)
				}
			}
		}
		re := Encode(ps)
		if !bytes.Equal(re.Payload(), bl.Payload()) || !reflect.DeepEqual(re.Skips(), bl.Skips()) {
			t.Fatalf("accepted list is not Encode's output for its postings:\n skips %v\n want %v", bl.Skips(), re.Skips())
		}
		if re.NodeFreq() != bl.NodeFreq() {
			t.Fatalf("NodeFreq %d, Encode says %d", bl.NodeFreq(), re.NodeFreq())
		}
	})
}
