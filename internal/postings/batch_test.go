package postings

import (
	"math/rand"
	"reflect"
	"testing"
)

// TestBatchDecodeMatchesScalar pins the batch decoder byte-identical to the
// scalar oracle across randomized lists of many shapes: single-doc runs,
// sparse doc gaps, multi-byte deltas, partial tail blocks.
func TestBatchDecodeMatchesScalar(t *testing.T) {
	r := rand.New(rand.NewSource(1007))
	sizes := []int{1, 2, BlockSize - 1, BlockSize, BlockSize + 1, 3*BlockSize + 17, 2000}
	for _, n := range sizes {
		for trial := 0; trial < 8; trial++ {
			ps := genList(r, n)
			bl := Encode(ps)
			for i := 0; i < bl.NumBlocks(); i++ {
				want, err := bl.decodeBlock(i, nil)
				if err != nil {
					t.Fatalf("n=%d trial=%d: scalar decode of block %d: %v", n, trial, i, err)
				}
				got := bl.decodeBlockFast(i, nil)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("n=%d trial=%d block=%d: batch decode differs from scalar\n got %v\nwant %v", n, trial, i, got, want)
				}
			}
		}
	}
}

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
// the one-byte range.
func TestBatchDecodeWideValues(t *testing.T) {
	ps := []Posting{
		{Doc: 0, Node: 1 << 20, Pos: 1 << 25, Offset: 1 << 30},
		{Doc: 0, Node: 1<<20 + 5, Pos: 1<<25 + 1000, Offset: 12},
		{Doc: 0, Node: 1 << 21, Pos: 1<<25 + 2000, Offset: 0},
		{Doc: 1 << 29, Node: 0, Pos: 0, Offset: 1},
		{Doc: 1<<29 + 1000, Node: 3, Pos: 7, Offset: 1 << 16},
	}
	bl := Encode(ps)
	want, err := bl.decodeBlock(0, nil)
	if err != nil {
		t.Fatalf("scalar decode: %v", err)
	}
	got := bl.decodeBlockFast(0, nil)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("batch decode differs on wide values:\n got %v\nwant %v", got, want)
	}
}

func BenchmarkDecodeBlock(b *testing.B) {
	r := rand.New(rand.NewSource(42))
	bl := Encode(genList(r, 64*BlockSize))
	buf := make([]Posting, 0, BlockSize)
	b.Run("scalar", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var err error
			buf, err = bl.decodeBlock(i%bl.NumBlocks(), buf[:0])
			if err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("batch", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			buf = bl.decodeBlockFast(i%bl.NumBlocks(), buf[:0])
		}
	})
}
