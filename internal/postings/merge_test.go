package postings

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/storage"
)

// splitRuns cuts a sorted posting stream into up to k document-disjoint
// runs in ascending order — the shape of the live index's segments and
// memtables — block-encoding alternate runs.
func splitRuns(ps []Posting, k int) []List {
	var parts []List
	for start, j := 0, 0; start < len(ps); j++ {
		end := min(start+max(len(ps)/k, 1), len(ps))
		for end < len(ps) && ps[end].Doc == ps[end-1].Doc {
			end++
		}
		if j%2 == 0 {
			parts = append(parts, Encode(ps[start:end]).All())
		} else {
			parts = append(parts, NewRawList(ps[start:end]))
		}
		start = end
	}
	return parts
}

// filterDead is the merge oracle: the sorted input with tombstoned
// documents removed.
func filterDead(ps []Posting, tomb *Tombstones) []Posting {
	out := []Posting{}
	for _, p := range ps {
		if !tomb.Dead(p.Doc) {
			out = append(out, p)
		}
	}
	return out
}

func drain(c *Cursor) []Posting {
	out := []Posting{}
	for ; c.Valid(); c.Advance() {
		out = append(out, c.Cur())
	}
	return out
}

func TestUnionMatchesOracle(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		ps := genList(r, r.Intn(600))
		k := 1 + r.Intn(5)
		var dead []storage.DocID
		for _, p := range ps {
			if r.Intn(10) == 0 {
				dead = append(dead, p.Doc)
			}
		}
		tomb := NewTombstones(dead...)
		u := Union(tomb, splitRuns(ps, k)...)
		want := filterDead(ps, tomb)

		if got := append([]Posting{}, u.Materialize()...); !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: Materialize yields %d postings, want %d", trial, len(got), len(want))
		}
		if got := drain(u.Cursor()); !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: cursor drain mismatch", trial)
		}
		if u.Len() < len(want) {
			t.Fatalf("trial %d: Len() = %d below live count %d", trial, u.Len(), len(want))
		}
		if tomb == nil && u.Len() != len(want) {
			t.Fatalf("trial %d: Len() = %d, want exact %d without tombstones", trial, u.Len(), len(want))
		}
	}
}

func TestUnionEmptyMemtablePreservesBlockFastPath(t *testing.T) {
	r := rand.New(rand.NewSource(8))
	base := Encode(genList(r, 300))
	u := Union(nil, base.All(), NewRawList(nil))
	if u.Blocks() != base {
		t.Fatalf("union with empty memtable part lost the block-backed fast path")
	}
	u = Union(NewTombstones(), base.All())
	if u.Blocks() != base {
		t.Fatalf("union with empty tombstone set lost the block-backed fast path")
	}
}

func TestUnionTombstoneOnlyTerm(t *testing.T) {
	ps := []Posting{{Doc: 3, Node: 1, Pos: 2}, {Doc: 3, Node: 1, Pos: 9}, {Doc: 7, Node: 2, Pos: 1}}
	tomb := NewTombstones(3, 7)
	u := Union(tomb, Encode(ps).All())
	if c := u.Cursor(); c.Valid() {
		t.Fatalf("cursor over fully tombstoned term is valid at %+v", c.Cur())
	}
	if got := u.Materialize(); len(got) != 0 {
		t.Fatalf("Materialize over fully tombstoned term yields %d postings", len(got))
	}
	if u.Len() != 3 {
		t.Fatalf("Len() = %d, want the suppressed-posting upper bound 3", u.Len())
	}
}

func TestUnionDeleteThenReAdd(t *testing.T) {
	// Document 2 is deleted and re-added under a fresh id (5, allocated
	// monotonically) within the same generation: the old postings live in
	// the base segment, the new ones in the memtable, and only the new id
	// may surface.
	base := Encode([]Posting{
		{Doc: 1, Node: 1, Pos: 4}, {Doc: 2, Node: 1, Pos: 3}, {Doc: 2, Node: 1, Pos: 8},
	})
	mem := []Posting{{Doc: 5, Node: 1, Pos: 3}, {Doc: 5, Node: 1, Pos: 8}}
	u := Union(NewTombstones(2), base.All(), NewRawList(mem))
	want := []Posting{{Doc: 1, Node: 1, Pos: 4}, {Doc: 5, Node: 1, Pos: 3}, {Doc: 5, Node: 1, Pos: 8}}
	if got := drain(u.Cursor()); !reflect.DeepEqual(got, want) {
		t.Fatalf("delete+re-add merge = %+v, want %+v", got, want)
	}
}

func TestMergedSeekPosInsideTombstonedRun(t *testing.T) {
	// Docs 0..9, one posting each at Pos 1..3; docs 4..6 tombstoned. A seek
	// landing inside the dead run must come out at the first live posting
	// after it.
	var ps []Posting
	for d := storage.DocID(0); d < 10; d++ {
		for pos := uint32(1); pos <= 3; pos++ {
			ps = append(ps, Posting{Doc: d, Node: 1, Pos: pos})
		}
	}
	tomb := NewTombstones(4, 5, 6)
	u := Union(tomb, splitRuns(ps, 3)...)

	c := u.Cursor()
	c.SeekPos(5, 2)
	if !c.Valid() || c.Cur().Doc != 7 || c.Cur().Pos != 1 {
		t.Fatalf("seek into tombstoned run landed at %+v, want doc 7 pos 1", c.Cur())
	}
	// Seeking within a live doc still honors positions.
	c = u.Cursor()
	c.SeekPos(7, 3)
	if !c.Valid() || c.Cur().Doc != 7 || c.Cur().Pos != 3 {
		t.Fatalf("positional seek landed at %+v, want doc 7 pos 3", c.Cur())
	}
	// Seeking past the end exhausts the cursor.
	c.SeekPos(42, 0)
	if c.Valid() {
		t.Fatalf("seek past end left cursor valid at %+v", c.Cur())
	}
}

func TestMergedRangeMatchesOracle(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	ps := genList(r, 400)
	tomb := NewTombstones(ps[len(ps)/2].Doc)
	u := Union(tomb, splitRuns(ps, 3)...)
	maxDoc := ps[len(ps)-1].Doc
	for lo := storage.DocID(0); lo <= maxDoc; lo += 3 {
		hi := lo + 5
		want := []Posting{}
		for _, p := range filterDead(ps, tomb) {
			if p.Doc >= lo && p.Doc < hi {
				want = append(want, p)
			}
		}
		got := append([]Posting{}, u.Range(lo, hi).Materialize()...)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("Range(%d,%d): got %d postings, want %d", lo, hi, len(got), len(want))
		}
	}
}

// TestUnionRejectsDisorder: parts must cover disjoint, ascending document
// ranges, and a nested union must share the outer tombstone set; anything
// else is a caller bug and panics.
func TestUnionRejectsDisorder(t *testing.T) {
	a := NewRawList([]Posting{{Doc: 1, Pos: 1}, {Doc: 4, Pos: 2}})
	b := NewRawList([]Posting{{Doc: 4, Pos: 7}, {Doc: 6, Pos: 1}})
	c := NewRawList([]Posting{{Doc: 9, Pos: 3}})
	for name, union := range map[string]func(){
		"overlapping":  func() { Union(nil, a, b) },
		"reversed":     func() { Union(nil, c, a) },
		"retombstoned": func() { Union(NewTombstones(9), Union(NewTombstones(1), a), c) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s parts: Union did not panic", name)
				}
			}()
			union()
		}()
	}
}

// TestUnionScopesTombstonesToParts: a tombstone outside every part's span
// leaves a single part flat, with its block-backed fast paths intact.
func TestUnionScopesTombstonesToParts(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	base := Encode(genList(r, 300))
	_, last := base.All().span()
	if u := Union(NewTombstones(last+1), base.All()); u.Blocks() != base {
		t.Fatal("tombstone past the only part turned its flat view into a merged one")
	}
	if u := Union(NewTombstones(last), base.All()); u.Blocks() != nil {
		t.Fatal("tombstone inside the part was dropped")
	}
}

func TestTombstonesCopyOnWrite(t *testing.T) {
	var t0 *Tombstones
	if t0.Dead(1) || t0.Len() != 0 {
		t.Fatal("nil Tombstones not an empty set")
	}
	t1 := t0.WithDead(1, 2)
	t2 := t1.WithDead(2)
	if t2 != t1 {
		t.Fatal("adding an existing id should return the receiver")
	}
	t3 := t1.WithDead(3)
	if t1.Dead(3) {
		t.Fatal("WithDead mutated its receiver")
	}
	if !t3.Dead(1) || !t3.Dead(3) || t3.Len() != 3 {
		t.Fatalf("t3 = %v, want {1,2,3}", t3.IDs())
	}
}

// TestTombstonesDeadIn holds the word-at-a-time range test to a naive scan
// over windows crossing word boundaries.
func TestTombstonesDeadIn(t *testing.T) {
	r := rand.New(rand.NewSource(12))
	for trial := 0; trial < 200; trial++ {
		var tomb *Tombstones
		for i := r.Intn(4); i > 0; i-- {
			tomb = tomb.WithDead(storage.DocID(r.Intn(300)))
		}
		lo := storage.DocID(r.Intn(320) - 10)
		hi := lo + storage.DocID(r.Intn(150))
		want := false
		for d := lo; d < hi; d++ {
			want = want || tomb.Dead(d)
		}
		if got := tomb.DeadIn(lo, hi); got != want {
			t.Fatalf("DeadIn(%d, %d) over %v = %v, want %v", lo, hi, tomb.IDs(), got, want)
		}
	}
}

// FuzzMemtableMerge drives the memtable/segment merge path with arbitrary
// posting streams, part counts, tombstone sets and seek targets: the
// merged cursor must yield exactly the sorted input minus tombstoned
// documents, in order, under iteration, seeking, ranging and cursor reuse
// alike. The parts are document-disjoint runs, as the live index builds
// them. DocCounts must report exactly the live documents' counts, the
// block-max view must bound every one of them, and AppendTo of the view
// and of a window must equal the cursor over it. The same union with its
// block parts forced resident must read the same.
func FuzzMemtableMerge(f *testing.F) {
	f.Add([]byte{}, uint8(1), uint32(0), uint16(0), uint16(0))
	f.Add([]byte{1, 2, 3, 4, 200, 201, 202}, uint8(3), uint32(0b1010), uint16(2), uint16(1))
	f.Add([]byte{255, 254, 0, 0, 0, 7, 9}, uint8(5), uint32(1<<31), uint16(9), uint16(300))
	f.Add([]byte{1, 2, 3, 33, 1, 2, 64, 5, 6, 7, 96, 1, 200, 2, 3}, uint8(5), uint32(0b1001000), uint16(3), uint16(5))
	f.Add([]byte{32, 33, 64, 65, 96, 97, 128, 129, 160, 161, 192, 193, 224, 225}, uint8(5), uint32(0b10100100), uint16(19), uint16(2))

	f.Fuzz(func(t *testing.T, data []byte, nParts uint8, tombMask uint32, seekDoc, seekPos uint16) {
		if len(data) > 1<<12 {
			return
		}
		// Decode a strictly (Doc, Pos)-increasing stream: byte high bits
		// advance the document, low bits advance the position. Strict
		// position increase keeps the merge order unambiguous.
		var ps []Posting
		doc, pos := storage.DocID(0), uint32(0)
		for _, b := range data {
			if d := storage.DocID(b >> 5); d > 0 {
				doc += d
				pos = 0
			}
			pos += uint32(b&31) + 1
			ps = append(ps, Posting{Doc: doc, Node: int32(b % 7), Pos: pos, Offset: uint32(b % 11)})
		}
		tomb := NewTombstones()
		for d := storage.DocID(0); d <= doc; d++ {
			if tombMask>>(uint(d)%32)&1 == 1 {
				tomb = tomb.WithDead(d)
			}
		}
		k := int(nParts%6) + 1
		parts := splitRuns(ps, k)
		u := Union(tomb, parts...)
		want := filterDead(ps, tomb)
		if got, wantCounts := docCounts(t, u, 0, doc+1), runCounts(want, 0, doc+1); !reflect.DeepEqual(got, wantCounts) {
			t.Fatalf("DocCounts = %v, want %v", got, wantCounts)
		}
		checkBlockMax(t, u, want)

		got := drain(u.Cursor())
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("merged drain: %d postings, want %d", len(got), len(want))
		}
		for i := 1; i < len(got); i++ {
			if got[i].Less(got[i-1]) {
				t.Fatalf("merged output out of order at %d", i)
			}
		}
		if u.Len() < len(want) {
			t.Fatalf("Len() = %d below live posting count %d", u.Len(), len(want))
		}

		// A fresh-cursor seek must land exactly where a linear scan would.
		target := Posting{Doc: storage.DocID(seekDoc % 64), Pos: uint32(seekPos)}
		c := u.Cursor()
		c.SeekPos(target.Doc, target.Pos)
		wantIdx := sort.Search(len(want), func(i int) bool {
			p := want[i]
			return p.Doc > target.Doc || (p.Doc == target.Doc && p.Pos >= target.Pos)
		})
		if wantIdx == len(want) {
			if c.Valid() {
				t.Fatalf("seek past end valid at %+v", c.Cur())
			}
		} else if !c.Valid() || c.Cur() != want[wantIdx] {
			t.Fatalf("seek (%d,%d) landed wrong: want %+v", target.Doc, target.Pos, want[wantIdx])
		}
		// One cursor reset across two different unions yields each in full.
		Union(nil, splitRuns(ps, k+1)...).Reset(c)
		if got := drain(c); !reflect.DeepEqual(got, append([]Posting{}, ps...)) {
			t.Fatalf("reset onto an untombstoned union: %d postings, want %d", len(got), len(ps))
		}
		u.Reset(c)
		if got := drain(c); !reflect.DeepEqual(got, want) {
			t.Fatalf("reset back onto the merged view: %d postings, want %d", len(got), len(want))
		}

		// Range by document window agrees with the oracle.
		lo, hi := storage.DocID(seekDoc%32), storage.DocID(seekDoc%32)+storage.DocID(seekPos%8)
		wantRange := []Posting{}
		for _, p := range want {
			if p.Doc >= lo && p.Doc < hi {
				wantRange = append(wantRange, p)
			}
		}
		gotRange := append([]Posting{}, u.Range(lo, hi).Materialize()...)
		if !reflect.DeepEqual(gotRange, wantRange) {
			t.Fatalf("Range(%d,%d): %d postings, want %d", lo, hi, len(gotRange), len(wantRange))
		}
		if got, wantCounts := docCounts(t, u, lo, hi), runCounts(want, lo, hi); !reflect.DeepEqual(got, wantCounts) {
			t.Fatalf("DocCounts(%d,%d) = %v, want %v", lo, hi, got, wantCounts)
		}
		checkAppendTo(t, "merged view", u)
		checkAppendTo(t, fmt.Sprintf("merged Range(%d,%d)", lo, hi), u.Range(lo, hi))
		checkResidentMatches(t, u, Union(tomb, forceResidentParts(parts)...), target.Doc, target.Pos, lo, hi)
	})
}

// runCounts is the DocCounts oracle: the per-document posting counts of
// the sorted ps within [lo, hi), in document order, as (doc, count) pairs.
func runCounts(ps []Posting, lo, hi storage.DocID) [][2]int {
	out := [][2]int{}
	for _, p := range ps {
		if p.Doc < lo || p.Doc >= hi {
			continue
		}
		if n := len(out); n > 0 && out[n-1][0] == int(p.Doc) {
			out[n-1][1]++
		} else {
			out = append(out, [2]int{int(p.Doc), 1})
		}
	}
	return out
}

// docCounts collects l.DocCounts(lo, hi) as (doc, count) pairs.
func docCounts(t *testing.T, l List, lo, hi storage.DocID) [][2]int {
	t.Helper()
	out := [][2]int{}
	err := l.DocCounts(lo, hi, func(d storage.DocID, n int) error {
		out = append(out, [2]int{int(d), n})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// checkBlockMax holds l's block-max view to its contract: blocks come in
// ascending document order (consecutive blocks may share a boundary
// document), and every live document's count is at most the sum of
// MaxFreq over the blocks covering it.
func checkBlockMax(t *testing.T, l List, live []Posting) {
	t.Helper()
	var blocks []Skip
	for bm := l.BlockMax(); bm.Valid(); bm.Next() {
		b := bm.Block()
		if b.FirstDoc > b.LastDoc || len(blocks) > 0 && b.FirstDoc < blocks[len(blocks)-1].LastDoc {
			t.Fatalf("block-max view out of order at block %d: %+v after %+v", len(blocks), b, blocks)
		}
		blocks = append(blocks, b)
	}
	for _, c := range runCounts(live, 0, math.MaxInt32) {
		bound := 0
		for _, b := range blocks {
			if int(b.FirstDoc) <= c[0] && c[0] <= int(b.LastDoc) {
				bound += int(b.MaxFreq)
			}
		}
		if c[1] > bound {
			t.Fatalf("document %d has %d postings, above its block-max bound %d", c[0], c[1], bound)
		}
	}
}
