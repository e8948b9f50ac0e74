package exec_test

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/exec"
	"repro/internal/index"
	"repro/internal/shard"
	"repro/internal/storage"
	"repro/internal/tokenize"
)

// tieDocs plants ties at the k-th score for the best-first order: fifteen
// documents whose root and paragraph both score 2 (simple scoring), one at
// position 9 whose elements score 7, 3, 2 and 2, and, at position 1, one
// whose two elements score 9 and which is deleted wherever the layout can
// delete. At k = 6 the small documents below the cut-off's document tie
// the k-th score from a lower document, so they must be scored, and the
// ones above it tie it from a higher document, so they must be skipped.
func tieDocs() (names, srcs []string) {
	for i := 0; i < 17; i++ {
		src := `<a><p>x x</p></a>`
		switch i {
		case 1:
			src = `<a><p>x x x x x x x x x</p></a>`
		case 9:
			src = `<a><p>x x x</p><q>x x</q><r>x x</r></a>`
		}
		names = append(names, fmt.Sprintf("d%02d.xml", i))
		srcs = append(srcs, src)
	}
	return names, srcs
}

// tieIndexes serves tieDocs as a flat index (with the doomed document
// kept, since a flat index cannot delete), a live snapshot whose last
// documents sit in the memtable and whose doomed document is tombstoned,
// and every segment of 1-, 2-, 3- and 8-shard facades with the doomed
// document deleted.
func tieIndexes(t *testing.T) map[string]*index.Index {
	t.Helper()
	names, srcs := tieDocs()
	out := map[string]*index.Index{}

	flat := storage.NewStore()
	for i := range names {
		if _, err := flat.AddTree(names[i], mustParse(srcs[i])); err != nil {
			t.Fatal(err)
		}
	}
	out["flat"] = index.Build(flat, tokenize.New())

	s := storage.NewStore()
	var ids []storage.DocID
	add := func(i int) {
		id, err := s.AddTree(names[i], mustParse(srcs[i]))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	for i := 0; i < 12; i++ {
		add(i)
	}
	live, err := index.NewLive(s, tokenize.New(), index.LiveConfig{ManualCompact: true})
	if err != nil {
		t.Fatal(err)
	}
	for i := 12; i < len(names); i++ {
		add(i)
		if err := live.IndexDoc(s.Doc(ids[i])); err != nil {
			t.Fatal(err)
		}
	}
	live.Delete(ids[1])
	out["live"] = live.Snapshot()

	for _, n := range []int{1, 2, 3, 8} {
		d := shard.New(shard.Options{Shards: n, Strategy: shard.RoundRobin})
		for i := 0; i < 12; i++ {
			if err := d.LoadTree(names[i], mustParse(srcs[i])); err != nil {
				t.Fatal(err)
			}
		}
		d.Warm()
		for i := 12; i < len(names); i++ {
			if err := d.Add(names[i], srcs[i]); err != nil {
				t.Fatal(err)
			}
		}
		if err := d.Delete(names[1]); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			out[fmt.Sprintf("shards=%d/%d", n, i)] = d.Segment(i).Index()
		}
	}
	return out
}

// TestTopKTiesAtTheCutOff holds the best-first run to the unpruned oracle
// on every layout of tieDocs, for every k and both scoring functions, and
// pins the planted case on the flat and live layouts: the documents tying
// the k-th score from below document 9 are scored, and the ones tying it
// from above are not.
func TestTopKTiesAtTheCutOff(t *testing.T) {
	for name, idx := range tieIndexes(t) {
		for _, complex := range []bool{false, true} {
			q := exec.TermQuery{Terms: []string{"x"}, Complex: complex, Scorer: exec.DefaultScorer{}}
			for k := 1; k <= 40; k++ {
				tk := &exec.TopKTermJoin{Index: idx, Query: q, K: k}
				got, err := tk.Run()
				if err != nil {
					t.Fatal(err)
				}
				oracle := exec.UnprunedTopK(idx, q, k)
				want, err := oracle.Run()
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s complex=%v k=%d: pruned top-k differs from the unpruned oracle\n got %v\nwant %v", name, complex, k, got, want)
				}
				if tk.DocsEvaluated > oracle.DocsEvaluated {
					t.Errorf("%s complex=%v k=%d: scored %d documents, the oracle %d", name, complex, k, tk.DocsEvaluated, oracle.DocsEvaluated)
				}
			}
		}
	}
	// Document ids follow tieDocs' order. The flat layout keeps document
	// 1, whose two elements lead the ranking, so there the cut falls at
	// document 0's paragraph; the live layout deleted it, so there it
	// falls at document 2's.
	layouts := tieIndexes(t)
	for _, c := range []struct {
		layout     string
		last, next storage.DocID // the last document placed, the first skipped
	}{{"flat", 0, 2}, {"live", 2, 3}} {
		tk := &exec.TopKTermJoin{Index: layouts[c.layout], Query: exec.TermQuery{Terms: []string{"x"}, Scorer: exec.DefaultScorer{}}, K: 6}
		got, err := tk.Run()
		if err != nil {
			t.Fatal(err)
		}
		if kth := got[5]; kth.Doc != c.last || kth.Score != 2 {
			t.Fatalf("%s: k-th element %+v, want a score-2 element of document %d: the planted tie is gone", c.layout, kth, c.last)
		}
		// Document 9 and the lower tying documents are scored; none after.
		if want := 3; tk.DocsEvaluated != want {
			t.Errorf("%s: scored %d documents, want %d (document %d ties the cut-off from above)", c.layout, tk.DocsEvaluated, want, c.next)
		}
	}
}
