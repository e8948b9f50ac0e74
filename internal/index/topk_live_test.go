package index_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/exec"
	"repro/internal/index"
	"repro/internal/scoring"
	"repro/internal/storage"
	"repro/internal/tokenize"
	"repro/internal/xmltree"
)

// shapeDoc generates one article whose words are drawn from a dense term,
// two query terms and filler, in a random number of paragraphs, so
// documents differ in their counts and top-k has documents to prune.
func shapeDoc(r *rand.Rand) *xmltree.Node {
	var b strings.Builder
	b.WriteString("<article>")
	for s := 1 + r.Intn(3); s > 0; s-- {
		b.WriteString("<sec>")
		for p := 1 + r.Intn(3); p > 0; p-- {
			b.WriteString("<p>")
			for w := 0; w < 16; w++ {
				switch x := r.Intn(10); {
				case x < 4:
					b.WriteString("dense ")
				case x < 6:
					b.WriteString("alpha ")
				case x < 7:
					b.WriteString("beta ")
				default:
					fmt.Fprintf(&b, "w%d ", r.Intn(40))
				}
			}
			b.WriteString("</p>")
		}
		b.WriteString("</sec>")
	}
	b.WriteString("</article>")
	root, err := xmltree.ParseString(b.String())
	if err != nil {
		panic(err)
	}
	return root
}

// mixedSnapshot builds a live snapshot whose lists span every shape the
// live index produces: a base segment in which "dense" adopts the bitmap
// representation, two folded extra segments, a sealed memtable, the active
// memtable, and a tombstone in each of those layers.
func mixedSnapshot(t *testing.T) *index.Index {
	t.Helper()
	r := rand.New(rand.NewSource(25))
	s := storage.NewStore()
	add := func(n int) []storage.DocID {
		var ids []storage.DocID
		for i := 0; i < n; i++ {
			id, err := s.AddTree(fmt.Sprintf("d%03d.xml", s.NumDocs()), shapeDoc(r))
			if err != nil {
				t.Fatal(err)
			}
			ids = append(ids, id)
		}
		return ids
	}
	base := add(240)
	live, err := index.NewLive(s, tokenize.New(), index.LiveConfig{SealPostings: 300, ManualCompact: true})
	if err != nil {
		t.Fatal(err)
	}
	if !live.Snapshot().BlockList("dense").HasBitmap() {
		t.Fatal(`base segment did not adopt the bitmap for "dense"`)
	}
	ingest := func(n int) []storage.DocID {
		ids := add(n)
		for _, id := range ids {
			if err := live.IndexDoc(s.Doc(id)); err != nil {
				t.Fatal(err)
			}
		}
		return ids
	}
	folded := ingest(8)
	live.FoldSealed()
	sealed := ingest(4)
	active := ingest(1)
	for _, id := range []storage.DocID{base[40], folded[1], sealed[0], active[0]} {
		live.Delete(id)
	}
	snap := live.Snapshot()
	if extra, mems := snap.Layers(); extra < 1 || mems < 2 {
		t.Fatalf("snapshot unions %d extra segments and %d memtable runs, want ≥1 and ≥2", extra, mems)
	}
	return snap
}

// TestTopKOnEveryLiveListShape holds the pruned top-k over a snapshot
// mixing every list shape to the exhaustive TermJoin+TopK over the same
// snapshot, element for element, and checks the run did prune.
func TestTopKOnEveryLiveListShape(t *testing.T) {
	idx := mixedSnapshot(t)
	skipped := 0
	for _, terms := range [][]string{{"dense", "alpha"}, {"alpha", "beta"}, {"beta"}, {"dense"}} {
		for _, complex := range []bool{false, true} {
			for _, w := range [][]float64{nil, {0.7, 0.2}} {
				q := exec.TermQuery{Terms: terms, Complex: complex, Scorer: exec.DefaultScorer{
					SimpleFn:  scoring.SimpleScorer{Weights: w},
					ComplexFn: scoring.ComplexScorer{Weights: w},
				}}
				all, err := exec.RunTermJoin(idx, q, exec.ChildCountNavigate)
				if err != nil {
					t.Fatal(err)
				}
				for _, k := range []int{1, 3, 10, 100, 100000} {
					oracle := exec.NewTopK(k)
					for _, n := range all {
						oracle.Offer(n)
					}
					tk := &exec.TopKTermJoin{Index: idx, Query: q, K: k, ChildCounts: exec.ChildCountNavigate}
					got, err := tk.Run()
					if err != nil {
						t.Fatal(err)
					}
					if want := oracle.Results(); !reflect.DeepEqual(got, want) {
						t.Fatalf("terms %v complex=%v weights=%v k=%d: pruned top-k differs\n got %v\nwant %v", terms, complex, w, k, got, want)
					}
					skipped += tk.BlocksSkipped
				}
			}
		}
	}
	if skipped == 0 {
		t.Error("no query skipped a block: the mixed snapshot does not exercise pruning")
	}
}
