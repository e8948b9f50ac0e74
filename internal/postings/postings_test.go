package postings

import (
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/storage"
)

// genList produces a sorted multi-document posting list with clustered
// positions, the shape the tokenizer emits: several postings per document,
// consecutive node ordinals, monotonically increasing positions.
func genList(r *rand.Rand, n int) []Posting {
	ps := make([]Posting, 0, n)
	doc := storage.DocID(r.Intn(3))
	for len(ps) < n {
		node := int32(r.Intn(4))
		pos := uint32(r.Intn(50))
		run := 1 + r.Intn(6)
		for k := 0; k < run && len(ps) < n; k++ {
			ps = append(ps, Posting{
				Doc:    doc,
				Node:   node,
				Pos:    pos,
				Offset: uint32(r.Intn(200)),
			})
			pos += 1 + uint32(r.Intn(9))
			if r.Intn(3) == 0 {
				node += int32(1 + r.Intn(2))
			}
		}
		doc += storage.DocID(1 + r.Intn(4))
	}
	return ps
}

func roundtrip(t *testing.T, ps []Posting) *BlockList {
	t.Helper()
	bl := Encode(ps)
	got := bl.All().Materialize()
	if len(got) == 0 && len(ps) == 0 {
		return bl
	}
	if !reflect.DeepEqual(got, ps) {
		t.Fatalf("roundtrip mismatch: %d postings in, %d out", len(ps), len(got))
	}
	return bl
}

func TestEncodeRoundtrip(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for _, n := range []int{0, 1, 2, BlockSize - 1, BlockSize, BlockSize + 1, 3*BlockSize + 17, 1000} {
		ps := genList(r, n)
		bl := roundtrip(t, ps)
		if bl.Len() != n {
			t.Errorf("n=%d: Len() = %d", n, bl.Len())
		}
		wantBlocks := (n + BlockSize - 1) / BlockSize
		if bl.NumBlocks() != wantBlocks {
			t.Errorf("n=%d: NumBlocks() = %d, want %d", n, bl.NumBlocks(), wantBlocks)
		}
		if got, want := bl.NodeFreq(), nodeFreqOf(ps); got != want {
			t.Errorf("n=%d: NodeFreq() = %d, want %d", n, got, want)
		}
		if bl.RawBytes() != n*rawPostingBytes {
			t.Errorf("n=%d: RawBytes() = %d", n, bl.RawBytes())
		}
	}
}

func TestEncodeSingleDocManyBlocks(t *testing.T) {
	// One document spanning several blocks: doc gaps stay zero across
	// block boundaries and positions keep increasing.
	n := 3*BlockSize + 5
	ps := make([]Posting, n)
	for i := range ps {
		ps[i] = Posting{Doc: 7, Node: int32(i / 40), Pos: uint32(i * 2), Offset: uint32(i % 13)}
	}
	bl := roundtrip(t, ps)
	for i, sk := range bl.Skips() {
		if sk.FirstDoc != 7 || sk.LastDoc != 7 {
			t.Fatalf("block %d doc range [%d, %d], want [7, 7]", i, sk.FirstDoc, sk.LastDoc)
		}
	}
}

func TestEncodePanicsOnUnsorted(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Encode on unsorted input did not panic")
		}
	}()
	Encode([]Posting{{Doc: 2, Pos: 1}, {Doc: 1, Pos: 9}})
}

func TestSnapshotRoundtrip(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	ps := genList(r, 4*BlockSize+9)
	bl := Encode(ps)

	// Reconstitute from the persisted representation with zeroed MaxFreq:
	// NewBlockList must recompute it rather than trust the table.
	skips := make([]Skip, len(bl.Skips()))
	copy(skips, bl.Skips())
	for i := range skips {
		skips[i].MaxFreq = 0
	}
	got, err := NewBlockList(bl.Len(), skips, bl.Payload())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.All().Materialize(), ps) {
		t.Fatal("snapshot roundtrip decoded different postings")
	}
	if got.NodeFreq() != bl.NodeFreq() {
		t.Errorf("NodeFreq %d, want %d", got.NodeFreq(), bl.NodeFreq())
	}
	for i := range skips {
		if got.Skips()[i].MaxFreq != bl.Skips()[i].MaxFreq {
			t.Errorf("block %d MaxFreq %d, want %d", i, got.Skips()[i].MaxFreq, bl.Skips()[i].MaxFreq)
		}
	}
}

func TestNewBlockListRejectsCorruption(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	ps := genList(r, 2*BlockSize+3)
	bl := Encode(ps)
	n, skips, buf := bl.Len(), bl.Skips(), bl.Payload()

	clone := func() (int, []Skip, []byte) {
		s := make([]Skip, len(skips))
		copy(s, skips)
		b := make([]byte, len(buf))
		copy(b, buf)
		return n, s, b
	}

	cases := []struct {
		name   string
		mutate func(n int, s []Skip, b []byte) (int, []Skip, []byte)
	}{
		{"truncated payload", func(n int, s []Skip, b []byte) (int, []Skip, []byte) {
			return n, s, b[:len(b)-1]
		}},
		{"empty payload", func(n int, s []Skip, b []byte) (int, []Skip, []byte) {
			return n, s, nil
		}},
		{"count too big", func(n int, s []Skip, b []byte) (int, []Skip, []byte) {
			s[0].End = BlockSize + 1
			return n, s, b
		}},
		{"count zero", func(n int, s []Skip, b []byte) (int, []Skip, []byte) {
			s[1].End = s[0].End
			return n, s, b
		}},
		{"skip undercount", func(n int, s []Skip, b []byte) (int, []Skip, []byte) {
			return n + 1, s, b
		}},
		{"first offset nonzero", func(n int, s []Skip, b []byte) (int, []Skip, []byte) {
			s[0].Off = 1
			return n, s, b
		}},
		{"offsets not increasing", func(n int, s []Skip, b []byte) (int, []Skip, []byte) {
			s[1].Off = 0
			return n, s, b
		}},
		{"offset beyond payload", func(n int, s []Skip, b []byte) (int, []Skip, []byte) {
			s[1].Off = uint32(len(b)) + 10
			return n, s, b
		}},
		{"skips without postings", func(n int, s []Skip, b []byte) (int, []Skip, []byte) {
			return 0, s, b
		}},
		{"postings without skips", func(n int, s []Skip, b []byte) (int, []Skip, []byte) {
			return n, nil, nil
		}},
		{"wrong last doc", func(n int, s []Skip, b []byte) (int, []Skip, []byte) {
			s[0].LastDoc += 5
			return n, s, b
		}},
		{"wrong first doc", func(n int, s []Skip, b []byte) (int, []Skip, []byte) {
			s[0].FirstDoc += 1
			return n, s, b
		}},
		{"wrong last pos", func(n int, s []Skip, b []byte) (int, []Skip, []byte) {
			s[0].LastPos += 1
			return n, s, b
		}},
		{"negative first doc", func(n int, s []Skip, b []byte) (int, []Skip, []byte) {
			s[0].FirstDoc = -1
			return n, s, b
		}},
		{"flipped payload byte", func(n int, s []Skip, b []byte) (int, []Skip, []byte) {
			b[len(b)/2] ^= 0xFF
			return n, s, b
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cn, cs, cb := tc.mutate(clone())
			got, err := NewBlockList(cn, cs, cb)
			if err == nil {
				// A flipped byte can, rarely, still decode to a valid list;
				// everything structural must fail hard.
				if tc.name == "flipped payload byte" && reflect.DeepEqual(got.All().Materialize(), ps) {
					t.Skip("bit flip produced an equivalent encoding")
				}
				t.Fatalf("NewBlockList accepted %s", tc.name)
			}
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("error %v is not ErrCorrupt", err)
			}
		})
	}
}

// TestCursorMatchesRaw drives a block-backed cursor and a raw cursor with
// an identical randomized sequence of Advance and SeekPos operations and
// requires byte-identical observations throughout.
func TestCursorMatchesRaw(t *testing.T) {
	for seed := int64(10); seed < 30; seed++ {
		r := rand.New(rand.NewSource(seed))
		n := r.Intn(4 * BlockSize)
		ps := genList(r, n)
		bl := Encode(ps)
		cb := bl.All().Cursor()
		cr := NewCursor(ps)
		maxDoc := storage.DocID(1)
		if n > 0 {
			maxDoc = ps[n-1].Doc + 2
		}
		for step := 0; step < 400; step++ {
			if cb.Valid() != cr.Valid() {
				t.Fatalf("seed %d step %d: Valid %v vs raw %v", seed, step, cb.Valid(), cr.Valid())
			}
			if cb.Remaining() != cr.Remaining() {
				t.Fatalf("seed %d step %d: Remaining %d vs raw %d", seed, step, cb.Remaining(), cr.Remaining())
			}
			if !cr.Valid() {
				// Past the end: further seeks and advances must stay there.
				cb.SeekPos(maxDoc, 0)
				cr.SeekPos(maxDoc, 0)
				if cb.Valid() || cr.Valid() {
					t.Fatalf("seed %d step %d: cursor revived after end", seed, step)
				}
				break
			}
			if got, want := cb.Cur(), cr.Cur(); got != want {
				t.Fatalf("seed %d step %d: Cur %+v vs raw %+v", seed, step, got, want)
			}
			if r.Intn(3) == 0 {
				d := storage.DocID(r.Intn(int(maxDoc) + 1))
				p := uint32(r.Intn(600))
				cb.SeekPos(d, p)
				cr.SeekPos(d, p)
			} else {
				cb.Advance()
				cr.Advance()
			}
		}
	}
}

func TestCursorEmptyList(t *testing.T) {
	for _, c := range []*Cursor{Encode(nil).All().Cursor(), NewCursor(nil)} {
		if c.Valid() {
			t.Fatal("empty cursor is valid")
		}
		if c.Remaining() != 0 {
			t.Fatalf("empty cursor Remaining = %d", c.Remaining())
		}
		c.SeekPos(100, 5)
		c.Advance()
		if c.Valid() {
			t.Fatal("empty cursor became valid")
		}
	}
}

func TestCursorSeekPastEnd(t *testing.T) {
	ps := []Posting{{Doc: 1, Pos: 3}, {Doc: 1, Pos: 9}, {Doc: 4, Pos: 0}}
	c := Encode(ps).All().Cursor()
	c.SeekPos(4, 1) // beyond the last posting of the last doc
	if c.Valid() {
		t.Fatalf("cursor valid after seek past end: %+v", c.Cur())
	}
	c.SeekPos(0, 0) // cursors never move backward
	if c.Valid() {
		t.Fatal("cursor moved backward")
	}
}

// TestRangeMatchesRaw cross-checks windowed views (Range) against the raw
// slice for every document boundary, including empty windows.
func TestRangeMatchesRaw(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	ps := genList(r, 3*BlockSize+21)
	bl := Encode(ps)
	all := bl.All()
	raw := NewRawList(ps)
	maxDoc := ps[len(ps)-1].Doc + 3
	for lo := storage.DocID(0); lo <= maxDoc; lo++ {
		for _, span := range []storage.DocID{0, 1, 2, 7, maxDoc} {
			hi := lo + span
			got := all.Range(lo, hi)
			want := raw.Range(lo, hi).Materialize()
			if got.Len() != len(want) {
				t.Fatalf("Range(%d, %d): Len %d, want %d", lo, hi, got.Len(), len(want))
			}
			gm := got.Materialize()
			if len(want) == 0 {
				if len(gm) != 0 {
					t.Fatalf("Range(%d, %d): non-empty materialization of empty window", lo, hi)
				}
				continue
			}
			if !reflect.DeepEqual(gm, want) {
				t.Fatalf("Range(%d, %d): materialized mismatch", lo, hi)
			}
			// A windowed cursor must stream exactly the window.
			var streamed []Posting
			for c := got.Cursor(); c.Valid(); c.Advance() {
				streamed = append(streamed, c.Cur())
			}
			if !reflect.DeepEqual(streamed, want) {
				t.Fatalf("Range(%d, %d): cursor mismatch", lo, hi)
			}
		}
	}
}

func TestWindowedCursorSeekStaysClamped(t *testing.T) {
	// Seeking a narrowed view past its window must park at the window end,
	// not run into later postings of the underlying list.
	r := rand.New(rand.NewSource(5))
	ps := genList(r, 2*BlockSize+40)
	bl := Encode(ps)
	mid := ps[len(ps)/2].Doc
	w := bl.All().Range(0, mid)
	c := w.Cursor()
	c.SeekPos(ps[len(ps)-1].Doc+1, 0)
	if c.Valid() {
		t.Fatalf("windowed cursor escaped its window: %+v", c.Cur())
	}
}

func TestBlocksPrecondition(t *testing.T) {
	r := rand.New(rand.NewSource(6))
	ps := genList(r, 2*BlockSize)
	bl := Encode(ps)
	if bl.All().Blocks() != bl {
		t.Fatal("full view did not expose its BlockList")
	}
	if NewRawList(ps).Blocks() != nil {
		t.Fatal("raw list exposed a BlockList")
	}
	sub := bl.All().Range(ps[0].Doc, ps[len(ps)-1].Doc) // trims at least the tail
	if sub.Len() != bl.Len() && sub.Blocks() != nil {
		t.Fatal("partial window exposed a BlockList")
	}
}

// TestDocCountsMatchesRaw checks the doc-stream-only counting scan against
// a naive count over the raw slice for every window, on a whole block
// list, a raw list and a block window cutting through blocks.
func TestDocCountsMatchesRaw(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	ps := genList(r, 3*BlockSize+11)
	bl := Encode(ps)
	wlo, whi := ps[BlockSize/2].Doc, ps[2*BlockSize+5].Doc
	views := []struct {
		name string
		List
	}{
		{"block", bl.All()},
		{"raw", NewRawList(ps)},
		{"window", bl.All().Range(wlo, whi)},
	}
	maxDoc := ps[len(ps)-1].Doc + 2
	for _, view := range views {
		name := view.name
		for lo := storage.DocID(0); lo <= maxDoc; lo++ {
			for _, span := range []storage.DocID{0, 1, 3, maxDoc} {
				hi := lo + span
				want := map[storage.DocID]int{}
				for _, p := range ps {
					if p.Doc >= lo && p.Doc < hi && (name != "window" || p.Doc >= wlo && p.Doc < whi) {
						want[p.Doc]++
					}
				}
				var gotDocs []storage.DocID
				got := map[storage.DocID]int{}
				err := view.DocCounts(lo, hi, func(d storage.DocID, n int) error {
					gotDocs = append(gotDocs, d)
					got[d] = n
					return nil
				})
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s DocCounts(%d, %d) = %v, want %v", name, lo, hi, got, want)
				}
				for i := 1; i < len(gotDocs); i++ {
					if gotDocs[i] <= gotDocs[i-1] {
						t.Fatalf("%s DocCounts(%d, %d) out of order: %v", name, lo, hi, gotDocs)
					}
				}
			}
		}
	}
}

func TestDocCountsAbortsOnError(t *testing.T) {
	r := rand.New(rand.NewSource(8))
	ps := genList(r, BlockSize)
	bl := Encode(ps)
	sentinel := errors.New("stop")
	calls := 0
	err := bl.All().DocCounts(0, ps[len(ps)-1].Doc+1, func(storage.DocID, int) error {
		calls++
		return sentinel
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("err = %v, want sentinel", err)
	}
	if calls != 1 {
		t.Fatalf("fn called %d times after error", calls)
	}
}

func TestMaxFreqIsPerDocumentMaximum(t *testing.T) {
	// 5 postings in doc 1, 2 in doc 2 → one block with MaxFreq 5.
	ps := []Posting{
		{Doc: 1, Pos: 0}, {Doc: 1, Pos: 1}, {Doc: 1, Pos: 2}, {Doc: 1, Pos: 3}, {Doc: 1, Pos: 4},
		{Doc: 2, Pos: 0}, {Doc: 2, Pos: 1},
	}
	bl := Encode(ps)
	if got := bl.Skips()[0].MaxFreq; got != 5 {
		t.Fatalf("MaxFreq = %d, want 5", got)
	}
}

func TestCompressionRatio(t *testing.T) {
	// The acceptance bar: a realistic clustered list must compress at
	// least 2x against the 16-byte raw representation.
	r := rand.New(rand.NewSource(9))
	ps := genList(r, 20*BlockSize)
	bl := Encode(ps)
	enc := bl.PayloadBytes() + bl.SkipBytes()
	if ratio := float64(bl.RawBytes()) / float64(enc); ratio < 2 {
		t.Fatalf("compression ratio %.2f < 2 (raw %d, encoded %d)", ratio, bl.RawBytes(), enc)
	}
}
