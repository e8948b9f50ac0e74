package postings

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/storage"
)

// denseList builds a high-frequency list that qualifies for bitmap
// adoption: ~every document in a contiguous range, a few postings each.
func denseList(r *rand.Rand, docs int) []Posting {
	var ps []Posting
	for d := 0; d < docs; d++ {
		if r.Intn(8) == 0 {
			continue // leave some holes so absent-doc seeks are exercised
		}
		node := int32(r.Intn(5))
		pos := uint32(r.Intn(30))
		occ := 1 + r.Intn(4)
		for k := 0; k < occ; k++ {
			ps = append(ps, Posting{Doc: storage.DocID(d), Node: node, Pos: pos, Offset: uint32(r.Intn(64))})
			pos += 1 + uint32(r.Intn(12))
			if r.Intn(3) == 0 {
				node++
			}
		}
	}
	return ps
}

// bitmapPair encodes ps twice and adopts the bitmap on one copy, failing
// the test if the list unexpectedly fails the adoption criteria.
func bitmapPair(t *testing.T, ps []Posting) (plain, dense *BlockList) {
	t.Helper()
	plain = Encode(ps)
	dense = Encode(ps)
	if !dense.MaybeBitmap() {
		t.Fatalf("list with %d postings did not adopt bitmap", len(ps))
	}
	return plain, dense
}

func TestBitmapAdoptionCriteria(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	if Encode(genList(r, BitmapMinPostings/2)).MaybeBitmap() {
		t.Fatal("short list adopted bitmap")
	}
	// Sparse: same posting count spread over a huge doc range.
	var sparse []Posting
	for d := 0; d < 2*BitmapMinPostings; d++ {
		sparse = append(sparse, Posting{Doc: storage.DocID(d * (2 * BitmapMaxSpread)), Pos: 1})
	}
	if Encode(sparse).MaybeBitmap() {
		t.Fatal("sparse list adopted bitmap")
	}
	bl := Encode(denseList(r, 3000))
	if bl.Len() < BitmapMinPostings {
		t.Fatalf("dense corpus too small: %d", bl.Len())
	}
	if !bl.MaybeBitmap() {
		t.Fatal("dense list did not adopt bitmap")
	}
	if !bl.HasBitmap() || bl.BitmapBytes() == 0 {
		t.Fatal("adopted list reports no bitmap")
	}
	if bl.MaybeBitmap() {
		t.Fatal("second adoption reported true")
	}
}

// TestBitmapCursorDifferential drives the bitmap cursor and the block
// cursor through identical full iterations and randomized SeekPos
// sequences — every Cur, Valid and Remaining must agree exactly.
func TestBitmapCursorDifferential(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	for trial := 0; trial < 6; trial++ {
		ps := denseList(r, 2500+r.Intn(2000))
		plain, dense := bitmapPair(t, ps)
		maxDoc := ps[len(ps)-1].Doc

		// Full iteration.
		a, b := plain.All().Cursor(), dense.All().Cursor()
		for a.Valid() || b.Valid() {
			if a.Valid() != b.Valid() {
				t.Fatalf("trial %d: Valid mismatch mid-iteration", trial)
			}
			if a.Cur() != b.Cur() {
				t.Fatalf("trial %d: Cur mismatch: %+v vs %+v", trial, a.Cur(), b.Cur())
			}
			if a.Remaining() != b.Remaining() {
				t.Fatalf("trial %d: Remaining %d vs %d", trial, a.Remaining(), b.Remaining())
			}
			a.Advance()
			b.Advance()
		}

		// Randomized interleaving of Advance and SeekPos.
		a, b = plain.All().Cursor(), dense.All().Cursor()
		for step := 0; step < 4000 && (a.Valid() || b.Valid()); step++ {
			if a.Valid() != b.Valid() {
				t.Fatalf("trial %d step %d: Valid mismatch", trial, step)
			}
			if a.Cur() != b.Cur() {
				t.Fatalf("trial %d step %d: Cur %+v vs %+v", trial, step, a.Cur(), b.Cur())
			}
			if r.Intn(3) == 0 {
				a.Advance()
				b.Advance()
				continue
			}
			doc := storage.DocID(r.Intn(int(maxDoc) + 3))
			pos := uint32(r.Intn(200))
			a.SeekPos(doc, pos)
			b.SeekPos(doc, pos)
		}
		if a.Valid() != b.Valid() {
			t.Fatalf("trial %d: terminal Valid mismatch", trial)
		}
	}
}

// TestBitmapRangeDifferential pins windowed views: Range results, their
// cursors, lowerBound boundaries and DocCounts must match the block path.
func TestBitmapRangeDifferential(t *testing.T) {
	r := rand.New(rand.NewSource(123))
	ps := denseList(r, 4000)
	plain, dense := bitmapPair(t, ps)
	maxDoc := int(ps[len(ps)-1].Doc)

	for trial := 0; trial < 50; trial++ {
		lo := storage.DocID(r.Intn(maxDoc + 2))
		hi := lo + storage.DocID(r.Intn(maxDoc/2+2))
		pw := plain.All().Range(lo, hi)
		dw := dense.All().Range(lo, hi)
		if pw.Len() != dw.Len() {
			t.Fatalf("Range(%d,%d): Len %d vs %d", lo, hi, pw.Len(), dw.Len())
		}
		if !reflect.DeepEqual(pw.Materialize(), dw.Materialize()) {
			t.Fatalf("Range(%d,%d): Materialize differs", lo, hi)
		}
		a, b := pw.Cursor(), dw.Cursor()
		for a.Valid() || b.Valid() {
			if a.Valid() != b.Valid() || a.Cur() != b.Cur() {
				t.Fatalf("Range(%d,%d): windowed cursor mismatch", lo, hi)
			}
			a.Advance()
			b.Advance()
		}

		var pc, dc []int
		collect := func(dst *[]int) func(storage.DocID, int) error {
			return func(d storage.DocID, n int) error {
				*dst = append(*dst, int(d), n)
				return nil
			}
		}
		if err := plain.All().DocCounts(lo, hi, collect(&pc)); err != nil {
			t.Fatal(err)
		}
		if err := dense.All().DocCounts(lo, hi, collect(&dc)); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(pc, dc) {
			t.Fatalf("DocCounts(%d,%d) differ:\n block %v\nbitmap %v", lo, hi, pc, dc)
		}
	}
}

// TestBitmapUnionDifferential checks bitmap-backed sub-cursors inside
// merged views with tombstones — the live-index read path.
func TestBitmapUnionDifferential(t *testing.T) {
	r := rand.New(rand.NewSource(321))
	ps := denseList(r, 6000)
	split := len(ps) / 2
	// Document-disjoint halves, as live segments are.
	for ps[split].Doc == ps[split-1].Doc {
		split++
	}
	plainA, denseA := bitmapPair(t, ps[:split])
	plainB := Encode(ps[split:])

	var tomb *Tombstones
	for i := 0; i < 40; i++ {
		tomb = tomb.WithDead(storage.DocID(r.Intn(int(ps[len(ps)-1].Doc))))
	}
	u1 := Union(tomb, plainA.All(), plainB.All())
	u2 := Union(tomb, denseA.All(), plainB.All())
	if !reflect.DeepEqual(u1.Materialize(), u2.Materialize()) {
		t.Fatal("merged Materialize differs with bitmap sub-list")
	}
	a, b := u1.Cursor(), u2.Cursor()
	for a.Valid() || b.Valid() {
		if a.Valid() != b.Valid() || a.Cur() != b.Cur() {
			t.Fatal("merged cursor mismatch with bitmap sub-list")
		}
		if r.Intn(4) == 0 {
			doc := a.Cur().Doc + storage.DocID(r.Intn(5))
			pos := uint32(r.Intn(100))
			a.SeekPos(doc, pos)
			b.SeekPos(doc, pos)
			continue
		}
		a.Advance()
		b.Advance()
	}
}
