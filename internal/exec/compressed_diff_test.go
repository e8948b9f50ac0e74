package exec

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"repro/internal/index"
	"repro/internal/scoring"
)

// The block-compressed index must be observationally identical to the old
// uncompressed one: every access method, fed the same postings once as
// block-backed lists (the index default) and once as raw materialized
// slices, must produce byte-identical ranked results. The raw slice path
// bypasses all of the codec, skip-table and lazy-decode machinery, so it
// is the oracle the compressed representation is measured against.

// rawQuery returns q with the index lookup replaced by materialized raw
// posting slices for each term.
func rawQuery(idx *index.Index, q TermQuery) TermQuery {
	raw := make([][]index.Posting, len(q.Terms))
	for i, term := range q.Terms {
		raw[i] = idx.List(idx.Tokenizer().Normalize(term)).Materialize()
	}
	q.PostingLists = raw
	return q
}

func TestCompressedListsMatchRawAcrossMethods(t *testing.T) {
	idx := buildMultiDocIndex(t, 5)
	for _, complex := range []bool{false, true} {
		methods := []string{"TermJoin", "EnhTermJoin", "Comp1", "Comp2"}
		if !complex {
			methods = append(methods, "GenMeet")
		}
		for _, terms := range [][]string{
			{"ctla"},
			{"ctla", "ctlb"},
		} {
			q := TermQuery{Terms: terms, Complex: complex, Scorer: DefaultScorer{}}
			for _, m := range methods {
				compressed := runMethod(t, idx, m, q)
				raw := runMethod(t, idx, m, rawQuery(idx, q))
				if len(compressed) == 0 {
					t.Fatalf("complex=%v terms %v %s: no results", complex, terms, m)
				}
				diffScored(t, fmt.Sprintf("complex=%v terms %v %s compressed vs raw", complex, terms, m),
					compressed, raw)
			}
		}
	}
}

func TestCompressedListsMatchRawSingleDoc(t *testing.T) {
	// The single-document corpus exercises dense position-space seeks
	// (every posting in one doc run) rather than cross-document skips.
	idx := buildSynthIndex(t, map[string]int{"ctla": 45, "ctlb": 25, "ctlc": 10}, 51)
	q := TermQuery{Terms: []string{"ctla", "ctlb", "ctlc"}, Scorer: DefaultScorer{}}
	for _, m := range []string{"TermJoin", "EnhTermJoin", "Comp1", "Comp2", "GenMeet"} {
		compressed := runMethod(t, idx, m, q)
		raw := runMethod(t, idx, m, rawQuery(idx, q))
		if len(compressed) == 0 {
			t.Fatalf("%s: no results", m)
		}
		diffScored(t, m+" compressed vs raw (single doc)", compressed, raw)
	}
}

// TestTopKBlockMaxMatchesUnprunedOracle is the pruning regression test:
// the block-max path with pruning enabled must return exactly — same
// elements, same order, same scores — what the unpruned sweep and the
// full TermJoin produce on the planted-frequency corpus.
func TestTopKBlockMaxMatchesUnprunedOracle(t *testing.T) {
	idx := buildMultiDocIndex(t, 12)
	for _, complex := range []bool{false, true} {
		q := TermQuery{
			Terms:   []string{"ctla", "ctlb"},
			Complex: complex,
			Scorer: DefaultScorer{
				SimpleFn:  scoring.SimpleScorer{Weights: []float64{0.8, 0.6}},
				ComplexFn: scoring.ComplexScorer{Weights: []float64{0.8, 0.6}},
			},
		}
		full, err := RunTermJoin(idx, q, ChildCountNavigate)
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range []int{1, 2, 5, 20, 1000} {
			label := fmt.Sprintf("complex=%v k=%d", complex, k)

			pruned := &TopKTermJoin{Index: idx, Query: q, K: k}
			got, err := pruned.Run()
			if err != nil {
				t.Fatal(err)
			}

			oracle := &TopKTermJoin{Index: idx, Query: q, K: k, DisablePruning: true}
			want, err := oracle.Run()
			if err != nil {
				t.Fatal(err)
			}
			diffScored(t, label+" pruned vs unpruned", got, want)
			if oracle.BlocksSkipped != 0 {
				t.Errorf("%s: unpruned oracle skipped %d blocks", label, oracle.BlocksSkipped)
			}

			// The full TermJoin fed through the same heap is a second,
			// codec-independent oracle.
			tk := NewTopK(k)
			for _, n := range full {
				tk.Offer(n)
			}
			diffScored(t, label+" pruned vs full TermJoin", got, tk.Results())

			// Raw slices run the same sweep, each list one pseudo-block, so
			// they can skip at most one block per list.
			raw := &TopKTermJoin{Index: idx, Query: rawQuery(idx, q), K: k}
			rawGot, err := raw.Run()
			if err != nil {
				t.Fatal(err)
			}
			diffScored(t, label+" block lists vs raw slices", got, rawGot)
			if raw.BlocksSkipped > len(q.Terms) {
				t.Errorf("%s: raw slices reported %d skipped blocks, more than their %d pseudo-blocks", label, raw.BlocksSkipped, len(q.Terms))
			}
		}
	}
}

// TestTopKBlockMaxSkipsBlocks pins the pruning payoff: with k=1 over a
// corpus where every document attains the same bound, the sweep must pass
// over later blocks without decoding them.
func TestTopKBlockMaxSkipsBlocks(t *testing.T) {
	idx := buildMultiDocIndex(t, 12)
	q := TermQuery{Terms: []string{"ctla", "ctlb"}, Scorer: DefaultScorer{}}
	tkj := &TopKTermJoin{Index: idx, Query: q, K: 1}
	if _, err := tkj.Run(); err != nil {
		t.Fatal(err)
	}
	if tkj.BlocksSkipped == 0 {
		t.Error("block-max sweep decoded every block at k=1")
	}
	if tkj.DocsEvaluated >= 12 {
		t.Errorf("DocsEvaluated = %d, want early termination below 12", tkj.DocsEvaluated)
	}
}

func TestGuardTickN(t *testing.T) {
	// TickN(n) must observe the same cancellation cadence as n Ticks: the
	// full check runs exactly when the batch crosses a CheckEvery boundary.
	ctx, cancel := context.WithCancel(context.Background())
	g := NewGuard(ctx, Limits{CheckEvery: 10})
	if err := g.TickN(5); err != nil {
		t.Fatalf("TickN(5): %v", err)
	}
	cancel()
	// t: 5 -> 9, same interval: only a latched failure would surface, and
	// nothing is latched yet.
	if err := g.TickN(4); err != nil {
		t.Fatalf("TickN(4) within the interval after cancel: %v", err)
	}
	// t: 9 -> 10 crosses the boundary: the full check sees the cancel.
	if err := g.TickN(1); !errors.Is(err, ErrCanceled) {
		t.Fatalf("TickN(1) across the boundary = %v, want ErrCanceled", err)
	}
	// Once latched, every TickN reports the failure regardless of cadence.
	if err := g.TickN(1); !errors.Is(err, ErrCanceled) {
		t.Fatalf("TickN after latch = %v, want ErrCanceled", err)
	}

	// A single batch spanning several intervals still checks.
	ctx2, cancel2 := context.WithCancel(context.Background())
	cancel2()
	g2 := NewGuard(ctx2, Limits{CheckEvery: 10})
	if err := g2.TickN(25); !errors.Is(err, ErrCanceled) {
		t.Fatalf("TickN(25) over a canceled context = %v, want ErrCanceled", err)
	}

	var nilG *Guard
	if err := nilG.TickN(1000); err != nil {
		t.Fatalf("TickN on nil guard: %v", err)
	}
	if err := g.TickN(0); !errors.Is(err, ErrCanceled) {
		t.Fatalf("TickN(0) after latch = %v, want latched error", err)
	}
}
