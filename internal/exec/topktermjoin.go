package exec

import (
	"repro/internal/index"
	"repro/internal/postings"
	"repro/internal/storage"
)

// TopKTermJoin evaluates "TermJoin then keep the k best elements" with
// early termination, in the spirit of the top-k techniques the paper cites
// for Threshold evaluation (Chang & Hwang's minimal probing and Bruno et
// al.'s upper-bound pruning, Sec. 5.3 [8, 5]).
//
// It derives an upper bound on the score any element of a document can
// attain — for the simple scoring function the weighted whole-document
// term counts; for the complex function that base plus the maximal
// proximity bonus (each adjacent occurrence pair contributes at most
// 1/(1+1) — or 1/(1+0) when two lists can hold the same position, see
// pairMax — and the child ratio is at most 1) — and skips every document
// whose bound cannot displace the current k-th best score.
//
// The bounds come from each list's block-max view (postings.BlockMax:
// skip tables, one pseudo-block per memtable run), so flat block lists and
// a live snapshot's merged lists run the same WAND-style sweep: the
// document space is swept in ascending order as a sequence of intervals
// over which the set of candidate blocks is constant, each interval is
// bounded by the sum of its blocks' MaxFreq statistics, and intervals that
// cannot beat the k-th score are skipped without decoding a single block.
// Documents inside a surviving interval are still bounded exactly (via a
// document-stream-only scan that never reports a deleted document) before
// the full per-document TermJoin runs. The result is exactly the full
// TermJoin's top k.
type TopKTermJoin struct {
	Index *index.Index
	Query TermQuery
	K     int
	// ChildCounts as in TermJoin (complex scoring only).
	ChildCounts ChildCountMode
	// DocsEvaluated reports, after Run, how many documents were actually
	// scored (the early-termination payoff).
	DocsEvaluated int
	// BlocksSkipped reports, after Run, how many encoded blocks the
	// block-max sweep passed over without decoding.
	BlocksSkipped int
	// Guard, when non-nil, is the cooperative cancellation and resource
	// budget, ticked once per interval of the sweep and for every posting
	// counted, and checked inside every per-document TermJoin; the run's
	// accessor charges its store accesses to the guard's shared budget.
	Guard *Guard

	acc     *storage.Accessor // the last Run's accessor, for AccessStats
	pairMax float64           // largest proximity bonus one occurrence pair adds
	// disablePruning evaluates every candidate document — the oracle the
	// differential tests compare the pruned sweep against (export_test.go).
	disablePruning bool
}

// Run evaluates and returns the top-k elements, best first.
func (t *TopKTermJoin) Run() ([]ScoredNode, error) {
	if t.K <= 0 {
		return nil, nil
	}
	if err := t.Query.validate("TopKTermJoin"); err != nil {
		return nil, err
	}
	if err := t.Guard.Check(); err != nil {
		return nil, err
	}
	t.DocsEvaluated = 0
	t.BlocksSkipped = 0
	t.acc = t.Guard.NewAccessor(t.Index.Store())

	terms := normalizeTerms(t.Index, t.Query.Terms)
	// A pair of occurrences adds 1/(1+distance) to a complex score.
	// Distinct index terms never share a position, so the distance is at
	// least 1; a repeated term or caller-supplied lists can put two
	// occurrences at the same position, distance 0.
	t.pairMax = 0.5
	if t.Query.Lists != nil || repeats(terms) {
		t.pairMax = 1
	}
	lists := make([]index.List, len(terms))
	for i := range terms {
		lists[i] = t.Query.list(t.Index, terms, i)
	}
	tk := NewTopK(t.K)
	// One evaluation context for the whole run: the accessor, the inner
	// TermJoin with its arena, the per-document sub-list scratch and the
	// heap's emit closure are all shared across every document evaluated,
	// so the per-document cost is the join itself, not its setup.
	q := t.Query
	q.Lists = nil
	ev := &topkEval{
		lists: lists,
		sub:   make([]index.List, len(lists)),
		emit:  tk.Emit(),
		tj: TermJoin{
			Index:       t.Index,
			Acc:         t.acc,
			Query:       q,
			ChildCounts: t.ChildCounts,
			Guard:       t.Guard,
			Arena:       &TJArena{},
		},
	}
	if err := t.runBlockMax(lists, ev, tk); err != nil {
		return nil, err
	}
	return tk.Results(), nil
}

// topkEval is the reusable per-document evaluation state of one
// TopKTermJoin run.
type topkEval struct {
	lists []index.List
	sub   []index.List
	emit  Emit
	tj    TermJoin
}

// evalDoc runs the regular TermJoin restricted to one document, feeding
// the top-k heap.
func (t *TopKTermJoin) evalDoc(ev *topkEval, doc storage.DocID) error {
	t.DocsEvaluated++
	for i, l := range ev.lists {
		ev.sub[i] = l.Range(doc, doc+1)
	}
	ev.tj.Query.Lists = ev.sub
	return ev.tj.Run(ev.emit)
}

// runBlockMax sweeps the document space in ascending order as intervals
// over which every list's candidate block set is constant, bounds each
// interval by the block-max view's MaxFreq sums alone, and decodes only
// intervals that can still displace the k-th score.
//
// Exactness: documents are handled in strictly ascending order and the
// heap's tie-break prefers lower document ids, so an element from a later
// document tying the k-th score can never displace it — a skip under
// bound ≤ k-th is therefore lossless. Deleted documents only remove
// postings, so every bound stays an upper bound, and DocCounts never
// reports them, so they are never evaluated.
func (t *TopKTermJoin) runBlockMax(lists []index.List, ev *topkEval, tk *TopK) error {
	views := make([]postings.BlockMax, len(lists))
	for i, l := range lists {
		views[i] = l.BlockMax()
	}
	counts := make([]int, len(lists))
	// Per-list (document, count) runs of a surviving interval, ascending by
	// document, and each run's merge position; the buffers are reused
	// across intervals.
	type docCount struct {
		doc storage.DocID
		n   int
	}
	runs := make([][]docCount, len(lists))
	heads := make([]int, len(lists))

	next := storage.DocID(0) // all documents < next are fully handled
	for {
		if err := t.Guard.Tick(); err != nil {
			return err
		}
		// Advance past blocks wholly before the frontier and find the
		// interval [d, B) on which every list's block set is constant.
		d := storage.DocID(-1)
		for i := range views {
			v := &views[i]
			for v.Valid() && v.Block().LastDoc < next {
				v.Next()
			}
			if !v.Valid() {
				continue
			}
			lo := max(v.Block().FirstDoc, next)
			if d < 0 || lo < d {
				d = lo
			}
		}
		if d < 0 {
			return nil // every list exhausted
		}
		B := storage.DocID(-1)
		for i := range views {
			if !views[i].Valid() {
				continue
			}
			blk := views[i].Block()
			edge := blk.LastDoc + 1
			if blk.FirstDoc > d {
				edge = blk.FirstDoc
			}
			if B < 0 || edge < B {
				B = edge
			}
		}

		// Upper-bound the interval from the block-max views alone: a
		// document in [d, B) may span several consecutive blocks, so sum
		// MaxFreq over every block starting before B.
		ubOcc := 0
		for i := range views {
			counts[i] = 0
			for v := views[i]; v.Valid() && v.Block().FirstDoc < B; v.Next() {
				counts[i] += int(v.Block().MaxFreq)
			}
			ubOcc += counts[i]
		}
		if ubOcc == 0 {
			next = B
			continue
		}
		if !t.disablePruning {
			if kth, full := tk.last(); full && t.bound(counts, ubOcc) <= kth.Score {
				// Nothing in the interval can displace the k-th: skip it
				// without decoding. Blocks wholly consumed by the skip are
				// the pruning payoff.
				for i := range views {
					for v := views[i]; v.Valid() && v.Block().LastDoc < B; v.Next() {
						t.BlocksSkipped++
					}
				}
				next = B
				continue
			}
		}

		// The interval survives: resolve exact per-document counts with a
		// document-stream-only scan of each list, then merge the lists'
		// ascending runs to bound and evaluate each document in order.
		for i, l := range lists {
			runs[i], heads[i] = runs[i][:0], 0
			occ := 0
			err := l.DocCounts(d, B, func(doc storage.DocID, n int) error {
				runs[i] = append(runs[i], docCount{doc, n})
				occ += n
				return nil
			})
			if err == nil {
				err = t.Guard.TickN(occ)
			}
			if err != nil {
				return err
			}
		}
		for {
			doc := storage.DocID(-1)
			for i, run := range runs {
				if h := heads[i]; h < len(run) && (doc < 0 || run[h].doc < doc) {
					doc = run[h].doc
				}
			}
			if doc < 0 {
				break
			}
			occ := 0
			for i, run := range runs {
				counts[i] = 0
				if h := heads[i]; h < len(run) && run[h].doc == doc {
					counts[i] = run[h].n
					heads[i]++
				}
				occ += counts[i]
			}
			if !t.disablePruning {
				if kth, full := tk.last(); full && t.bound(counts, occ) <= kth.Score {
					continue // exact bound says this document cannot place
				}
			}
			if err := t.evalDoc(ev, doc); err != nil {
				return err
			}
		}
		next = B
	}
}

// bound upper-bounds any element score in a document.
func (t *TopKTermJoin) bound(counts []int, totalOcc int) float64 {
	base := t.Query.Scorer.Simple(counts)
	if !t.Query.Complex {
		return base
	}
	// Complex score ≤ (base + proximity bonus) × 1; each of the at most
	// occ-1 adjacent pairs contributes at most pairMax.
	if totalOcc > 1 {
		base += t.pairMax * float64(totalOcc-1)
	}
	return base
}

// repeats reports whether any term occurs twice in terms.
func repeats(terms []string) bool {
	for i := range terms {
		for j := i + 1; j < len(terms); j++ {
			if terms[i] == terms[j] {
				return true
			}
		}
	}
	return false
}
