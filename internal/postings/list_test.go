package postings

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/storage"
)

// threePerDoc returns n postings, three per document from document 0, so
// two of every three block boundaries fall inside a document: postings
// 126–128, across the first boundary, all belong to document 42.
func threePerDoc(n int) []Posting {
	ps := make([]Posting, n)
	for i := range ps {
		ps[i] = Posting{Doc: storage.DocID(i / 3), Node: int32(i % 5), Pos: uint32(10*(i/3) + i%3), Offset: uint32(i % 7)}
	}
	return ps
}

// checkAppendTo holds l.AppendTo to a cursor drain of l, after a prefix
// with and without spare capacity, and checks the prefix is untouched.
func checkAppendTo(t *testing.T, name string, l List) {
	t.Helper()
	want := drain(l.Cursor())
	for _, spare := range []int{0, 2 * BlockSize} {
		prefix := make([]Posting, 2, 2+spare)
		prefix[0], prefix[1] = Posting{Doc: -1, Pos: 7}, Posting{Doc: -2, Node: 3}
		keep := append([]Posting{}, prefix...)
		got := l.AppendTo(prefix)
		if !reflect.DeepEqual(prefix, keep) || !reflect.DeepEqual(got[:2], keep) {
			t.Fatalf("%s, spare %d: AppendTo changed the prefix to %v", name, spare, got[:2])
		}
		if rest := append([]Posting{}, got[2:]...); !reflect.DeepEqual(rest, want) {
			t.Fatalf("%s, spare %d: AppendTo yields %d postings, the cursor %d", name, spare, len(rest), len(want))
		}
	}
	if got := append([]Posting{}, l.Materialize()...); !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: Materialize yields %d postings, the cursor %d", name, len(got), len(want))
	}
}

// TestAppendToMatchesCursor covers every list shape AppendTo handles.
func TestAppendToMatchesCursor(t *testing.T) {
	ps := threePerDoc(1000)
	bl := Encode(ps)

	// A window whose edges fall inside blocks 1 and 5.
	inner := bl.All().Range(ps[200].Doc, ps[700].Doc)
	if inner.lo%BlockSize == 0 || inner.hi%BlockSize == 0 || inner.lo/BlockSize == inner.hi/BlockSize {
		t.Fatalf("window [%d, %d) does not cut two blocks", inner.lo, inner.hi)
	}
	// One document across the boundary of blocks 0 and 1.
	split := ps[BlockSize].Doc
	if ps[BlockSize-1].Doc != split {
		t.Fatalf("document %d does not span two blocks", split)
	}
	one := bl.All().Range(split, split+1)
	if one.Len() != 3 || one.lo/BlockSize == (one.hi-1)/BlockSize {
		t.Fatalf("window [%d, %d) is not document %d across two blocks", one.lo, one.hi, split)
	}

	dense := Encode(denseList(rand.New(rand.NewSource(3)), 3000))
	if !dense.MaybeResident() {
		t.Fatal("dense list did not adopt the resident form")
	}

	// A merged view: block, raw and block parts, tombstones in and out of
	// the window [100, 250) it is narrowed to.
	parts := []List{Encode(ps[:450]).All(), NewRawList(ps[450:600]), Encode(ps[600:]).All()}
	tomb := NewTombstones(5, 120, 149, 150, 200, 300)
	merged := Union(tomb, parts...)
	window := merged.Range(100, 250)
	if window.sub == nil || window.tomb == nil {
		t.Fatal("merged window lost its parts or its tombstones")
	}

	cases := []struct {
		name string
		l    List
	}{
		{"empty", List{}},
		{"empty raw", NewRawList(nil)},
		{"raw", NewRawList(ps)},
		{"raw window", NewRawList(ps).Range(40, 90)},
		{"whole block list", bl.All()},
		{"block window inside blocks", inner},
		{"one document over two blocks", one},
		{"resident whole list", dense.All()},
		{"resident window", dense.All().Range(700, 1900)},
		{"resident one document", dense.All().Range(1000, 1001)},
		{"merged", merged},
		{"merged window", window},
		{"merged window without tombstones", merged.Range(310, 400)},
	}
	for _, tc := range cases {
		checkAppendTo(t, tc.name, tc.l)
	}
	if n := len(window.AppendTo(nil)); n >= window.Len() {
		t.Errorf("merged window: %d postings, want fewer than Len %d with tombstones inside", n, window.Len())
	}
}
