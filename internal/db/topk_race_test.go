package db

import (
	"fmt"
	"math"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/exec"
	"repro/internal/index"
	"repro/internal/postings"
	"repro/internal/scoring"
)

// TestTopKPrunedReadsDuringIngest: two readers run the pruned top-k while
// one writer adds, updates and deletes, with memtables sealing every few
// documents and background folds swapping segments underneath. On every
// snapshot a reader takes, each top-k — simple, complex, weighted — must
// equal the exhaustive TermJoin+TopK over that same snapshot, and each
// term's cursor must agree with its AppendDocCounts (checkCursorWalks).
// Run under -race (make stress).
func TestTopKPrunedReadsDuringIngest(t *testing.T) {
	d := New(Options{Ingest: index.LiveConfig{SealPostings: 64, MaxSegments: 3}})
	src := func(i int) string {
		return fmt.Sprintf(`<a><p>%s</p><q>%s w%d</q></a>`,
			strings.Repeat("alpha ", 1+i%7), strings.Repeat("beta alpha ", i%5), i)
	}
	for i := 0; i < 30; i++ {
		if err := d.Add(fmt.Sprintf("d%d.xml", i), src(i)); err != nil {
			t.Fatal(err)
		}
	}
	d.Warm()
	terms := []string{"alpha", "beta"}
	cases := []TermSearchOptions{
		{TopK: 5},
		{TopK: 3, Complex: true},
		{TopK: 10, Weights: []float64{0.8, 0.3}},
	}

	done := make(chan struct{})
	var checked atomic.Int64 // snapshots the readers have verified
	var wg sync.WaitGroup
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				idx := d.Index()
				for _, term := range terms {
					if err := checkCursorWalks(idx.List(term)); err != nil {
						t.Errorf("generation %d, %q: %v", idx.Generation(), term, err)
						return
					}
				}
				for _, opts := range cases {
					got, err := SearchTerms(idx, terms, opts, nil, nil)
					if err != nil {
						t.Error(err)
						return
					}
					q := exec.TermQuery{Terms: terms, Complex: opts.Complex, Scorer: exec.DefaultScorer{
						SimpleFn:  scoring.SimpleScorer{Weights: opts.Weights},
						ComplexFn: scoring.ComplexScorer{Weights: opts.Weights},
					}}
					all, err := exec.RunTermJoin(idx, q, exec.ChildCountNavigate)
					if err != nil {
						t.Error(err)
						return
					}
					oracle := exec.NewTopK(opts.TopK)
					for _, n := range all {
						oracle.Offer(n)
					}
					if want := oracle.Results(); !reflect.DeepEqual(got, want) {
						t.Errorf("generation %d, %+v: pruned top-k differs\n got %v\nwant %v", idx.Generation(), opts, got, want)
						return
					}
				}
				checked.Add(1)
				select {
				case <-done:
					return
				default:
				}
			}
		}()
	}

	defer func() {
		close(done)
		wg.Wait()
		d.WaitCompaction()
	}()

	names := make([]string, 30)
	for i := range names {
		names[i] = fmt.Sprintf("d%d.xml", i)
	}
	// Keep writing until the readers have verified a good number of
	// snapshots, so reads overlap seals, folds and deletes.
	for i := 30; i < 150 || checked.Load() < 100 && i < 3000; i++ {
		var err error
		switch {
		case i%5 == 0:
			err = d.Delete(names[0])
			names = names[1:]
		case i%3 == 0:
			err = d.Update(names[len(names)/2], src(i))
		default:
			names = append(names, fmt.Sprintf("d%d.xml", i))
			err = d.Add(names[len(names)-1], src(i))
		}
		if err != nil {
			t.Fatal(err)
		}
	}
}

// checkCursorWalks holds a list's cursor to its AppendDocCounts: the per-document
// run lengths of a full walk must equal the reported counts, and a walk
// that hops with SeekPos(d+1, 0) must visit the same documents.
func checkCursorWalks(l index.List) error {
	var runs []postings.DocCount
	counts := l.AppendDocCounts(0, math.MaxInt32, nil)
	for c := l.Cursor(); c.Valid(); c.Advance() {
		if d, n := c.Cur().Doc, len(runs); n > 0 && runs[n-1].Doc == d {
			runs[n-1].N++
		} else {
			runs = append(runs, postings.DocCount{Doc: d, N: 1})
		}
	}
	for i := range max(len(runs), len(counts)) {
		if i == len(runs) || i == len(counts) || runs[i] != counts[i] {
			return fmt.Errorf("cursor walk and AppendDocCounts differ at document #%d (%d vs %d documents)", i, len(runs), len(counts))
		}
	}
	i := 0
	for c := l.Cursor(); c.Valid(); c.SeekPos(c.Cur().Doc+1, 0) {
		if i == len(counts) || c.Cur().Doc != counts[i].Doc {
			return fmt.Errorf("seek walk step %d lands on document %d", i, c.Cur().Doc)
		}
		i++
	}
	if i != len(counts) {
		return fmt.Errorf("seek walk visits %d documents, AppendDocCounts %d", i, len(counts))
	}
	return nil
}
