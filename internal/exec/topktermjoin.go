package exec

import (
	"sort"

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
// When every posting list is block-compressed the bounds come straight
// from the skip tables (WAND-style block-max pruning): the document space
// is swept in ascending order as a sequence of intervals over which the
// set of candidate blocks is constant, each interval is bounded by the
// sum of its blocks' MaxFreq statistics, and intervals that cannot beat
// the k-th score are skipped without decoding a single block. Documents
// inside a surviving interval are still bounded exactly (via a
// document-stream-only scan) before the full per-document TermJoin runs.
// The result is exactly the full TermJoin's top k in both modes.
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
	// DisablePruning evaluates every candidate document — the oracle the
	// differential tests compare the pruned paths against.
	DisablePruning bool
	// Bound overrides the per-document upper bound: given the per-term
	// whole-document counts and the total occurrence count, it must return
	// a value ≥ any element score in that document. Nil uses the default
	// described above. A custom Bound forces the document-at-a-time path
	// (block-max statistics only bound the default).
	Bound func(counts []int, totalOcc int) float64
	// Guard, when non-nil, is the cooperative cancellation and resource
	// budget, checked during the bound-building pass, between documents,
	// and inside every per-document TermJoin; the run's accessor charges
	// its store accesses to the guard's shared budget.
	Guard *Guard

	acc     *storage.Accessor // the last Run's accessor, for AccessStats
	pairMax float64           // largest proximity bonus one occurrence pair adds
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
	if t.Query.Lists != nil || t.Query.PostingLists != nil || repeats(terms) {
		t.pairMax = 1
	}
	lists := make([]index.List, len(terms))
	blocked := true
	for i := range terms {
		lists[i] = t.Query.list(t.Index, terms, i)
		if lists[i].Len() > 0 && lists[i].Blocks() == nil {
			blocked = false
		}
	}
	tk := NewTopK(t.K)
	// One evaluation context for the whole run: the accessor, the inner
	// TermJoin with its arena, the per-document sub-list scratch and the
	// heap's emit closure are all shared across every document evaluated,
	// so the per-document cost is the join itself, not its setup.
	q := t.Query
	q.Lists = nil
	q.PostingLists = nil
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
	if t.Bound == nil && blocked {
		if err := t.runBlockMax(lists, ev, tk); err != nil {
			return nil, err
		}
	} else {
		if err := t.runExhaustive(lists, ev, tk); err != nil {
			return nil, err
		}
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

// runExhaustive is the document-at-a-time path: one counting pass over
// every posting, documents ordered by decreasing bound, stop at the first
// bound the k-th score beats. It serves custom Bound functions, raw
// posting lists, and the unpruned oracle (DisablePruning).
func (t *TopKTermJoin) runExhaustive(lists []index.List, ev *topkEval, tk *TopK) error {
	type docInfo struct {
		doc    storage.DocID
		counts []int
		occ    int
		bound  float64
	}
	byDoc := map[storage.DocID]*docInfo{}
	for ti, l := range lists {
		for cur := l.Cursor(); cur.Valid(); cur.Advance() {
			if err := t.Guard.Tick(); err != nil {
				return err
			}
			p := cur.Cur()
			di := byDoc[p.Doc]
			if di == nil {
				di = &docInfo{doc: p.Doc, counts: make([]int, len(lists))}
				byDoc[p.Doc] = di
			}
			di.counts[ti]++
			di.occ++
		}
	}
	docs := make([]*docInfo, 0, len(byDoc))
	bound := t.Bound
	if bound == nil {
		bound = t.defaultBound
	}
	for _, di := range byDoc {
		di.bound = bound(di.counts, di.occ)
		docs = append(docs, di)
	}
	sort.Slice(docs, func(i, j int) bool {
		if docs[i].bound != docs[j].bound {
			return docs[i].bound > docs[j].bound
		}
		return docs[i].doc < docs[j].doc
	})

	for _, di := range docs {
		if err := t.Guard.Check(); err != nil {
			return err
		}
		if !t.DisablePruning {
			// Documents come by decreasing bound, then ascending id. One whose
			// bound ties the k-th score can still displace it from a lower
			// document id, so only a tie from a higher id ends the scan.
			if kth, full := tk.last(); full && (di.bound < kth.Score || di.bound == kth.Score && di.doc > kth.Doc) {
				break // no element of any remaining document can displace the k-th
			}
		}
		if err := t.evalDoc(ev, di.doc); err != nil {
			return err
		}
	}
	return nil
}

// runBlockMax is the block-max path: sweep the document space in
// ascending order as intervals over which every list's candidate block
// set is constant, bound each interval by skip-table MaxFreq sums alone,
// and decode only intervals that can still displace the k-th score.
//
// Exactness: documents are handled in strictly ascending order and the
// heap's tie-break prefers lower document ids, so an element from a later
// document tying the k-th score can never displace it — a skip under
// bound ≤ k-th is therefore lossless, matching the exhaustive path.
func (t *TopKTermJoin) runBlockMax(lists []index.List, ev *topkEval, tk *TopK) error {
	skips := make([][]postings.Skip, len(lists))
	ptr := make([]int, len(lists))
	for i, l := range lists {
		skips[i] = l.Blocks().Skips() // nil for empty lists
	}
	counts := make([]int, len(lists))

	// Per-interval document statistics, reused across intervals: the map
	// is cleared (not reallocated) and docInfos recycle through a freelist.
	type docInfo struct {
		counts []int
		occ    int
	}
	byDoc := map[storage.DocID]*docInfo{}
	var diUsed, diFree []*docInfo
	var docs []storage.DocID

	next := storage.DocID(0) // all documents < next are fully handled
	for {
		if err := t.Guard.Tick(); err != nil {
			return err
		}
		// Advance past blocks wholly before the frontier and find the
		// interval [d, B) on which every list's block set is constant.
		d := storage.DocID(-1)
		for i := range skips {
			for ptr[i] < len(skips[i]) && skips[i][ptr[i]].LastDoc < next {
				ptr[i]++
			}
			if ptr[i] == len(skips[i]) {
				continue
			}
			lo := skips[i][ptr[i]].FirstDoc
			if lo < next {
				lo = next
			}
			if d < 0 || lo < d {
				d = lo
			}
		}
		if d < 0 {
			return nil // every list exhausted
		}
		B := storage.DocID(-1)
		for i := range skips {
			if ptr[i] == len(skips[i]) {
				continue
			}
			sk := skips[i][ptr[i]]
			edge := sk.LastDoc + 1
			if sk.FirstDoc > d {
				edge = sk.FirstDoc
			}
			if B < 0 || edge < B {
				B = edge
			}
		}

		// Upper-bound the interval from the skip tables alone: a document
		// in [d, B) may span several consecutive blocks, so sum MaxFreq
		// over every block starting before B.
		ubOcc := 0
		for i := range skips {
			counts[i] = 0
			for j := ptr[i]; j < len(skips[i]) && skips[i][j].FirstDoc < B; j++ {
				counts[i] += int(skips[i][j].MaxFreq)
			}
			ubOcc += counts[i]
		}
		if ubOcc == 0 {
			next = B
			continue
		}
		if !t.DisablePruning {
			if kth, full := tk.last(); full && t.defaultBound(counts, ubOcc) <= kth.Score {
				// Nothing in the interval can displace the k-th: skip it
				// without decoding. Blocks wholly consumed by the skip are
				// the pruning payoff.
				for i := range skips {
					for j := ptr[i]; j < len(skips[i]) && skips[i][j].LastDoc < B; j++ {
						t.BlocksSkipped++
					}
				}
				next = B
				continue
			}
		}

		// The interval survives: resolve exact per-document counts with a
		// document-stream-only scan, then bound and evaluate each document
		// in ascending order.
		for _, di := range diUsed {
			diFree = append(diFree, di)
		}
		diUsed = diUsed[:0]
		clear(byDoc)
		docs = docs[:0]
		for i, l := range lists {
			bl := l.Blocks()
			err := bl.DocCounts(d, B, func(doc storage.DocID, n int) error {
				if err := t.Guard.TickN(n); err != nil {
					return err
				}
				di := byDoc[doc]
				if di == nil {
					if k := len(diFree); k > 0 {
						di = diFree[k-1]
						diFree = diFree[:k-1]
						clear(di.counts)
						di.occ = 0
					} else {
						di = &docInfo{counts: make([]int, len(lists))}
					}
					diUsed = append(diUsed, di)
					byDoc[doc] = di
					docs = append(docs, doc)
				}
				di.counts[i] += n
				di.occ += n
				return nil
			})
			if err != nil {
				return err
			}
		}
		sort.Slice(docs, func(i, j int) bool { return docs[i] < docs[j] })
		for _, doc := range docs {
			if err := t.Guard.Check(); err != nil {
				return err
			}
			di := byDoc[doc]
			if !t.DisablePruning {
				if kth, full := tk.last(); full && t.defaultBound(di.counts, di.occ) <= kth.Score {
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

// defaultBound upper-bounds any element score in a document.
func (t *TopKTermJoin) defaultBound(counts []int, totalOcc int) float64 {
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
