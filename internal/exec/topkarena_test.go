package exec

import (
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"repro/internal/index"
	"repro/internal/storage"
	"repro/internal/tokenize"
	"repro/internal/xmltree"
)

// raceEnabled is set in race builds (race_test.go), where sync.Pool drops
// items at random and allocation counts mean nothing.
var raceEnabled bool

// mergedIndex is a live snapshot whose lists are merged views over the
// same parts at every scale: a base segment of 100·scale documents, six
// sealed memtables of one document each, whose counts grow with scale,
// and tombstones in both. Each list is about scale times as long as at
// scale 1.
func mergedIndex(t testing.TB, scale int) *index.Index {
	t.Helper()
	s := storage.NewStore()
	var base, mem []*xmltree.Node
	for d := 0; d < 100*scale; d++ {
		base = append(base, countsDoc(1+d*7%9, d*5%7))
	}
	for d := 0; d < 6; d++ {
		mem = append(mem, countsDoc(scale*(2+d*3%5), scale*(1+d%4)))
	}
	addDocs(t, s, 0, base)
	live, err := index.NewLive(s, tokenize.New(), index.LiveConfig{SealPostings: 1, ManualCompact: true})
	if err != nil {
		t.Fatal(err)
	}
	ids := addDocs(t, s, len(base), mem)
	for _, id := range ids {
		if err := live.IndexDoc(s.Doc(id)); err != nil {
			t.Fatal(err)
		}
	}
	for _, id := range []storage.DocID{3, 17, ids[2]} {
		live.Delete(id)
	}
	return live.Snapshot()
}

// topkShapes returns runs over idx that differ in everything the pooled
// arena is sized by: one to three terms and a repeated term, simple and
// complex scoring, and k from 1 to 100.
func topkShapes(idx *index.Index) []*TopKTermJoin {
	var runs []*TopKTermJoin
	for _, terms := range [][]string{{"x"}, {"x", "y"}, {"y", "f", "x"}, {"x", "y", "x"}} {
		for _, complex := range []bool{false, true} {
			for _, k := range []int{1, 10, 100} {
				q := TermQuery{Terms: terms, Complex: complex, Scorer: DefaultScorer{}}
				runs = append(runs, &TopKTermJoin{Index: idx, Query: q, K: k})
			}
		}
	}
	return runs
}

// checkShapesInterleaved runs every shape in the order perm gives and
// holds each to its oracle result.
func checkShapesInterleaved(t *testing.T, shapes []*TopKTermJoin, want [][]ScoredNode, perm []int) {
	for _, i := range perm {
		tk := *shapes[i] // each goroutine runs its own copy
		got, err := tk.Run()
		if err != nil {
			t.Error(err)
			return
		}
		if !reflect.DeepEqual(got, want[i]) {
			t.Errorf("terms %v complex=%v k=%d:\n got %v\nwant %v", tk.Query.Terms, tk.Query.Complex, tk.K, got, want[i])
			return
		}
	}
}

// topkOracle returns the disablePruning oracle's result for every shape.
func topkOracle(t *testing.T, shapes []*TopKTermJoin) [][]ScoredNode {
	t.Helper()
	want := make([][]ScoredNode, len(shapes))
	for i, s := range shapes {
		var err error
		if want[i], err = unprunedTopK(s.Index, s.Query, s.K).Run(); err != nil {
			t.Fatal(err)
		}
	}
	return want
}

// TestTopKArenaReuse interleaves runs of different shapes, which take
// their buffers from the shared pool in turn, over a view with memtable
// parts and tombstones: a buffer an earlier run left behind must never
// leak into a later run's result.
func TestTopKArenaReuse(t *testing.T) {
	shapes := topkShapes(mergedIndex(t, 2))
	want := topkOracle(t, shapes)
	r := rand.New(rand.NewSource(5))
	for pass := 0; pass < 3; pass++ {
		checkShapesInterleaved(t, shapes, want, r.Perm(len(shapes)))
	}
}

// TestTopKArenaConcurrentRuns runs the shapes from four goroutines at
// once, each in its own order; under -race any arena shared between two
// live runs is reported.
func TestTopKArenaConcurrentRuns(t *testing.T) {
	shapes := topkShapes(mergedIndex(t, 2))
	want := topkOracle(t, shapes)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		perm := rand.New(rand.NewSource(int64(g))).Perm(len(shapes))
		wg.Add(1)
		go func() {
			defer wg.Done()
			checkShapesInterleaved(t, shapes, want, perm)
		}()
	}
	wg.Wait()
}

// TestTopKAllocsFlatInListLength: once warmed, a run's allocations do not
// grow with its lists. Its growable buffers come from the pooled arena, so
// a run over a merged view with four times longer lists makes the same
// number of allocations.
func TestTopKAllocsFlatInListLength(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not representative under -race")
	}
	var allocs []float64
	for _, scale := range []int{2, 8} {
		idx := mergedIndex(t, scale)
		q := TermQuery{Terms: []string{"x", "y"}, Complex: true, Scorer: DefaultScorer{}}
		if n := idx.List("x").Len(); n < 100*scale {
			t.Fatalf("scale %d: x has %d postings, want at least %d", scale, n, 100*scale)
		}
		tk := &TopKTermJoin{Index: idx, Query: q, K: 10}
		allocs = append(allocs, testing.AllocsPerRun(20, func() {
			if _, err := tk.Run(); err != nil {
				t.Fatal(err)
			}
		}))
	}
	if allocs[0] != allocs[1] {
		t.Fatalf("a warmed run makes %.0f allocations at 2× list length and %.0f at 8×", allocs[0], allocs[1])
	}
}
