package db

import (
	"fmt"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/exec"
	"repro/internal/index"
	"repro/internal/scoring"
)

// TestTopKPrunedReadsDuringIngest: two readers run the pruned top-k while
// one writer adds, updates and deletes, with memtables sealing every few
// documents and background folds swapping segments underneath. On every
// snapshot a reader takes, each top-k — simple, complex, weighted — must
// equal the exhaustive TermJoin+TopK over that same snapshot. Run under
// -race (make stress).
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
