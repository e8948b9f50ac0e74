package postings

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// TestBatchDecodeAppends checks the dst-append contract: decoding into a
// non-empty dst must extend it without touching the prefix.
func TestBatchDecodeAppends(t *testing.T) {
	r := rand.New(rand.NewSource(1008))
	ps := genList(r, 300)
	bl := Encode(ps)
	prefix := []Posting{{Doc: 99, Node: 7, Pos: 3, Offset: 1}}
	got := bl.decodeBlockFast(1, append([]Posting(nil), prefix...))
	if got[0] != prefix[0] {
		t.Fatalf("prefix clobbered: %v", got[0])
	}
	want := bl.decodeBlockFast(1, nil)
	if !reflect.DeepEqual(got[1:], want) {
		t.Fatalf("appended decode differs from fresh decode")
	}
}

// TestBatchDecodeWideValues exercises multi-byte varints in every stream:
// large doc gaps, node deltas in both signs, positions and offsets beyond
// the one-byte range, and values at the int32/uint32 limits. The block must
// pass NewBlockList and decode back to exactly the postings Encode was given.
func TestBatchDecodeWideValues(t *testing.T) {
	ps := []Posting{
		{Doc: 0, Node: 1 << 20, Pos: 1 << 25, Offset: 1 << 30},
		{Doc: 0, Node: 1<<20 + 5, Pos: 1<<25 + 1000, Offset: 12},
		{Doc: 0, Node: 1 << 21, Pos: 1<<25 + 2000, Offset: 0},
		{Doc: 0, Node: 7, Pos: 1<<25 + 2001, Offset: math.MaxUint32},
		{Doc: 1 << 29, Node: 0, Pos: 0, Offset: 1},
		{Doc: 1<<29 + 1000, Node: 3, Pos: 7, Offset: 1 << 16},
		{Doc: math.MaxInt32 - 1, Node: math.MaxInt32, Pos: math.MaxUint32, Offset: 5},
	}
	bl := roundtrip(t, ps)
	if got := bl.decodeBlockFast(0, nil); !reflect.DeepEqual(got, ps) {
		t.Fatalf("batch decode differs on wide values:\n got %v\nwant %v", got, ps)
	}
}

func BenchmarkDecodeBlock(b *testing.B) {
	r := rand.New(rand.NewSource(42))
	bl := Encode(genList(r, 64*BlockSize))
	buf := make([]Posting, 0, BlockSize)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf = bl.decodeBlockFast(i%bl.NumBlocks(), buf[:0])
	}
}

// raceEnabled is set in race builds, where sync.Pool drops items at
// random, so allocation counts that rely on a pool do not hold.
var raceEnabled bool

// TestNewBlockListReusesScratch pins that restoring a list allocates only
// the list itself: the decode and re-encode scratch of the block check is
// reused across lists, as a snapshot open restores one list per term.
func TestNewBlockListReusesScratch(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	r := rand.New(rand.NewSource(42))
	bl := Encode(genList(r, 64*BlockSize))
	skips := append([]Skip(nil), bl.Skips()...)
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := NewBlockList(bl.Len(), skips, bl.Payload()); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 1 {
		t.Fatalf("NewBlockList on a 64-block list: %.0f allocations, want at most 1", allocs)
	}
}

// BenchmarkNewBlockList measures restoring and validating a 64-block list,
// the per-term cost of opening a snapshot.
func BenchmarkNewBlockList(b *testing.B) {
	r := rand.New(rand.NewSource(42))
	bl := Encode(genList(r, 64*BlockSize))
	skips := append([]Skip(nil), bl.Skips()...)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := NewBlockList(bl.Len(), skips, bl.Payload()); err != nil {
			b.Fatal(err)
		}
	}
}
