package postings

import (
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"testing"

	"repro/internal/storage"
)

// denseList builds a high-frequency list that qualifies for resident
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

// residentPair encodes ps twice and keeps one copy resident, failing the
// test if the list unexpectedly fails the adoption criteria.
func residentPair(t *testing.T, ps []Posting) (plain, dense *BlockList) {
	t.Helper()
	plain = Encode(ps)
	dense = Encode(ps)
	if !dense.MaybeResident() {
		t.Fatalf("list with %d postings did not adopt the resident form", len(ps))
	}
	return plain, dense
}

func TestResidentAdoptionCriteria(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	if Encode(genList(r, ResidentMinPostings/2)).MaybeResident() {
		t.Fatal("short list adopted the resident form")
	}
	// Sparse: same posting count spread over a huge doc range.
	var sparse []Posting
	for d := 0; d < 2*ResidentMinPostings; d++ {
		sparse = append(sparse, Posting{Doc: storage.DocID(d * (2 * ResidentMaxSpread)), Pos: 1})
	}
	if Encode(sparse).MaybeResident() {
		t.Fatal("sparse list adopted the resident form")
	}
	bl := Encode(denseList(r, 3000))
	if bl.Len() < ResidentMinPostings {
		t.Fatalf("dense corpus too small: %d", bl.Len())
	}
	if !bl.MaybeResident() {
		t.Fatal("dense list did not adopt the resident form")
	}
	if !bl.HasResident() || bl.ResidentBytes() == 0 {
		t.Fatal("adopted list reports no resident postings")
	}
	if bl.MaybeResident() {
		t.Fatal("second adoption reported true")
	}
}

// TestResidentCursorDifferential drives a resident list's cursor and a
// decoding cursor through identical full iterations and randomized SeekPos
// sequences — every Cur and Valid must agree exactly.
func TestResidentCursorDifferential(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	for trial := 0; trial < 6; trial++ {
		ps := denseList(r, 2500+r.Intn(2000))
		plain, dense := residentPair(t, ps)
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

// TestResidentRangeDifferential pins windowed views: Range results, their
// cursors, lowerBound boundaries and DocCounts must match the block path.
func TestResidentRangeDifferential(t *testing.T) {
	r := rand.New(rand.NewSource(123))
	ps := denseList(r, 4000)
	plain, dense := residentPair(t, ps)
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
			t.Fatalf("DocCounts(%d,%d) differ:\n   block %v\nresident %v", lo, hi, pc, dc)
		}
	}
}

// TestResidentUnionDifferential checks resident sub-cursors inside
// merged views with tombstones — the live-index read path.
func TestResidentUnionDifferential(t *testing.T) {
	r := rand.New(rand.NewSource(321))
	ps := denseList(r, 6000)
	plain := splitRuns(ps, 2)
	dense := append([]List{}, plain...)
	_, denseA := residentPair(t, plain[0].Materialize())
	dense[0] = denseA.All()

	var tomb *Tombstones
	for i := 0; i < 40; i++ {
		tomb = tomb.WithDead(storage.DocID(r.Intn(int(ps[len(ps)-1].Doc))))
	}
	u1 := Union(tomb, plain...)
	u2 := Union(tomb, dense...)
	if !reflect.DeepEqual(u1.Materialize(), u2.Materialize()) {
		t.Fatal("merged Materialize differs with a resident sub-list")
	}
	a, b := u1.Cursor(), u2.Cursor()
	for a.Valid() || b.Valid() {
		if a.Valid() != b.Valid() || a.Cur() != b.Cur() {
			t.Fatal("merged cursor mismatch with a resident sub-list")
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

// TestResidentCursorResetOntoDecoded walks one cursor over a resident list,
// resets it onto a decoding list with different postings and walks that:
// the decode must land in the cursor's scratch buffer, never in the
// resident postings it was last pointed at.
func TestResidentCursorResetOntoDecoded(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	ps := denseList(r, 3000)
	_, dense := residentPair(t, ps)
	other := genList(r, 5*BlockSize+9)
	decoded := Encode(other)

	c := dense.All().Cursor()
	if got := drain(c); !reflect.DeepEqual(got, ps) {
		t.Fatalf("resident walk yields %d postings, want %d", len(got), len(ps))
	}
	for round := 0; round < 2; round++ {
		dense.All().Range(ps[len(ps)/3].Doc, ps[len(ps)/2].Doc).Reset(c)
		for k := 0; k < 50 && c.Valid(); k++ {
			c.SeekPos(c.Cur().Doc+1, 0)
		}
		decoded.All().Reset(c)
		if got := drain(c); !reflect.DeepEqual(got, other) {
			t.Fatalf("round %d: decoded walk after reset yields %d postings, want %d", round, len(got), len(other))
		}
	}
	if got := dense.All().AppendTo(nil); !reflect.DeepEqual(got, ps) {
		t.Fatal("resident postings changed after a cursor decoded another list")
	}
}

// TestResidentConcurrentReaders runs cursor walks, SeekPos and DocCounts
// over one resident list from eight goroutines at once; under -race any
// write to the shared resident postings is reported.
func TestResidentConcurrentReaders(t *testing.T) {
	r := rand.New(rand.NewSource(43))
	ps := denseList(r, 3000)
	_, dense := residentPair(t, ps)
	maxDoc := ps[len(ps)-1].Doc
	wantCounts := runCounts(ps, 0, maxDoc+1)

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			r := rand.New(rand.NewSource(seed))
			l := dense.All()
			if got := drain(l.Cursor()); !reflect.DeepEqual(got, ps) {
				t.Errorf("goroutine %d: walk yields %d postings, want %d", seed, len(got), len(ps))
				return
			}
			c := l.Cursor()
			for at := 0; c.Valid(); {
				doc, pos := c.Cur().Doc+storage.DocID(r.Intn(40)), uint32(r.Intn(60))
				c.SeekPos(doc, pos)
				// The cursor never moves backward: search from where it was.
				at += sort.Search(len(ps)-at, func(i int) bool {
					p := ps[at+i]
					return p.Doc > doc || p.Doc == doc && p.Pos >= pos
				})
				if at == len(ps) && c.Valid() || at < len(ps) && (!c.Valid() || c.Cur() != ps[at]) {
					t.Errorf("goroutine %d: SeekPos(%d, %d) landed wrong", seed, doc, pos)
					return
				}
			}
			var got [][2]int
			_ = l.DocCounts(0, maxDoc+1, func(d storage.DocID, n int) error {
				got = append(got, [2]int{int(d), n})
				return nil
			})
			if !reflect.DeepEqual(got, wantCounts) {
				t.Errorf("goroutine %d: DocCounts differ", seed)
			}
		}(int64(g))
	}
	wg.Wait()
}
