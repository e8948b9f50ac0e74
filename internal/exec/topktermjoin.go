package exec

import (
	"slices"
	"sync"

	"repro/internal/index"
	"repro/internal/postings"
	"repro/internal/storage"
)

// TopKTermJoin evaluates "TermJoin then keep the k best elements" with
// early termination, in the spirit of the top-k techniques the paper cites
// for Threshold evaluation (Chang & Hwang's minimal probing and Bruno et
// al.'s upper-bound pruning, Sec. 5.3 [8, 5]).
//
// It works best first under two levels of upper bound, as Block-Max WAND
// does (Ding & Suel, SIGIR 2011). The document space is cut into block-max
// intervals, the maximal ranges over which each list's set of overlapping
// blocks (postings.BlockMax: skip tables, one pseudo-block per memtable
// run) is constant, and each is bounded from its blocks' MaxFreq alone.
// Intervals are opened in descending bound order; opening one counts its
// documents with a document-stream-only scan that never reports a deleted
// document, which bounds each exactly. A document runs the full TermJoin,
// restricted to it, once no unopened interval ranks ahead of its bound,
// and the run stops when neither the next document nor the next interval
// can displace the k-th element. The result is exactly the full TermJoin's
// top k (DESIGN.md §17).
type TopKTermJoin struct {
	Index *index.Index
	Query TermQuery
	K     int
	// ChildCounts as in TermJoin (complex scoring only).
	ChildCounts ChildCountMode
	// DocsEvaluated reports, after Run, how many documents were actually
	// scored (the early-termination payoff).
	DocsEvaluated int
	// BlocksSkipped reports, after Run, how many blocks of the lists'
	// block-max views end inside an interval that was never opened.
	BlocksSkipped int
	// Guard, when non-nil, is the cooperative cancellation and resource
	// budget, ticked once per interval and for every posting counted, and
	// checked inside every per-document TermJoin; the run's accessor
	// charges its store accesses to the guard's shared budget.
	Guard *Guard

	acc     *storage.Accessor // the last Run's accessor, for AccessStats
	pairMax float64           // largest proximity bonus one occurrence pair adds
	// disablePruning evaluates every candidate document — the oracle the
	// differential tests compare the pruned run against (export_test.go).
	disablePruning bool
}

// entry is an item of the best-first heap: the unopened block-max interval
// [lo, hi), or, when hi is 0, the opened interval groups[g], whose best
// candidate is the document lo. bound bounds the score of any element the
// entry still holds.
type entry struct {
	lo, hi storage.DocID
	bound  float64
	ends   int32 // an unopened interval's blocks whose last document it holds
	g      int32
}

// The heaps rank by bound, then by lower document: the order in which
// RankedBefore breaks a tie at the k-th score.
func candidateFirst(a, b candidate) bool {
	return a.bound > b.bound || a.bound == b.bound && a.doc < b.doc
}

func entryFirst(a, b entry) bool {
	return candidateFirst(candidate{a.lo, a.bound}, candidate{b.lo, b.bound})
}

// group is an opened interval [lo, hi): its candidates, cands[from:to],
// and the offset in the arena's bounds of its lists' decoded windows.
// Until its first document is scored, win is -1 and the candidates are
// unordered; from then on they are a heap.
type group struct {
	lo, hi        storage.DocID
	from, to, win int32
}

// candidate is a document of an opened interval with its exact bound.
type candidate struct {
	doc   storage.DocID
	bound float64
}

// boundMemo is a slot of topkRun's cache of scoreBound by count vector.
type boundMemo struct {
	key   uint64 // a 1 byte, then the counts, a byte each; 0 when empty
	bound float64
}

// topkArena holds the buffers of a run that grow with its lists or k: the
// heap, the opened groups and their candidates, each term's document
// counts of the interval being opened, the scored groups' windows back to
// back — list i's window onto a scored group g is
// ps[bounds[g.win+i]:bounds[g.win+i+1]] — the two TopKs and the inner
// TermJoin's arena. Runs take an arena from arenas and return it emptied,
// so a run allocates none of them once the arena has grown to the
// workload.
type topkArena struct {
	heap   []entry
	groups []group
	cands  []candidate
	runs   [][]postings.DocCount
	ps     []postings.Posting
	bounds []int32
	tk     TopK
	// floor holds, under simple scoring, the k best bounds of the
	// documents seen: a document's root contains every occurrence in it,
	// so it scores exactly its bound, and the k-th of them ranks no better
	// than the k-th element. Under complex scoring it keeps nothing.
	floor TopK
	tj    TJArena
}

var arenas = sync.Pool{New: func() any { return new(topkArena) }}

// topkRun is the state of one Run; its buffers are reused by every
// interval opened and every document scored. The per-term slices are
// indexed by term.
type topkRun struct {
	*TopKTermJoin
	// memo caches document bounds: the documents of an interval share few
	// count vectors.
	memo [64]boundMemo
	*topkArena
	lists  []index.List
	counts []int
	heads  []int        // merge positions in runs
	sub    []index.List // one document's sub-lists
	emit   Emit
	tj     TermJoin
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
	n := len(terms)
	a := arenas.Get().(*topkArena)
	// Each term's counts keep the capacity an earlier run gave them.
	a.runs = slices.Grow(a.runs[:0], n)[:n]
	a.tk, a.floor = TopK{k: t.K, h: a.tk.h}, TopK{h: a.floor.h}
	if !t.Query.Complex {
		a.floor.k = t.K
	}
	defer func() {
		a.heap, a.groups, a.cands = a.heap[:0], a.groups[:0], a.cands[:0]
		a.ps, a.bounds, a.tk.h, a.floor.h = a.ps[:0], a.bounds[:0], a.tk.h[:0], a.floor.h[:0]
		arenas.Put(a)
	}()
	r := &topkRun{TopKTermJoin: t, topkArena: a,
		lists: make([]index.List, n), counts: make([]int, n), heads: make([]int, n), sub: make([]index.List, n)}
	for i := range terms {
		r.lists[i] = t.Query.list(t.Index, terms, i)
	}
	// One evaluation context for the whole run: the accessor, the inner
	// TermJoin with its arena, the sub-list scratch and the heap's emit
	// are shared by every document evaluated.
	r.emit = r.tk.Emit()
	q := t.Query
	q.Lists = nil
	r.tj = TermJoin{Index: t.Index, Acc: t.acc, Query: q, ChildCounts: t.ChildCounts, Guard: t.Guard, Arena: &a.tj}

	if err := r.enumerate(); err != nil {
		return nil, err
	}
	// Best first: score the best group's best candidate or open the best
	// interval, until the best entry cannot place — every other ranks
	// after it.
	for len(r.heap) > 0 && r.canPlace(r.heap[0].bound, r.heap[0].lo) {
		e := r.heap[0]
		r.heap = popHeap(r.heap, entryFirst)
		var err error
		if e.hi == 0 {
			err = r.score(e)
		} else {
			err = r.open(e)
		}
		if err != nil {
			return nil, err
		}
	}
	for _, e := range r.heap {
		t.BlocksSkipped += int(e.ends)
	}
	return r.tk.Results(), nil
}

// enumerate fills the heap with the block-max intervals, each bounded
// from its blocks' MaxFreq alone.
func (r *topkRun) enumerate() error {
	views := make([]postings.BlockMax, len(r.lists))
	for i, l := range r.lists {
		views[i] = l.BlockMax()
	}
	next := storage.DocID(0) // the intervals below next are enumerated
	for {
		if err := r.Guard.Tick(); err != nil {
			return err
		}
		// The interval [d, B): d is the first document at or after next
		// that a block covers, B the first block edge after d.
		d, B := storage.DocID(-1), storage.DocID(-1)
		for i := range views {
			v := &views[i]
			for v.Valid() && v.Block().LastDoc < next {
				v.Next()
			}
			if v.Valid() && (d < 0 || max(v.Block().FirstDoc, next) < d) {
				d = max(v.Block().FirstDoc, next)
			}
		}
		if d < 0 {
			heapify(r.heap, entryFirst)
			return nil
		}
		for i := range views {
			if v := &views[i]; v.Valid() {
				edge := v.Block().LastDoc + 1
				if v.Block().FirstDoc > d {
					edge = v.Block().FirstDoc
				}
				if B < 0 || edge < B {
					B = edge
				}
			}
		}
		// A document may span consecutive blocks of a list, so a list's
		// bound sums MaxFreq over every block overlapping the interval.
		iv := entry{lo: d, hi: B}
		for i := range views {
			r.counts[i] = 0
			for v := views[i]; v.Valid() && v.Block().FirstDoc < B; v.Next() {
				r.counts[i] += int(v.Block().MaxFreq)
				if v.Block().LastDoc < B {
					iv.ends++
				}
			}
		}
		iv.bound = scoreBound(&r.Query, r.pairMax, r.counts)
		r.heap = append(r.heap, iv)
		next = B
	}
}

// canPlace reports whether an element scoring at most bound, from doc or a
// later document, can rank ahead of the k-th element and of the floor's.
func (r *topkRun) canPlace(bound float64, doc storage.DocID) bool {
	return r.disablePruning || !below(&r.tk, bound, doc) && !below(&r.floor, bound, doc)
}

// below reports whether h is full and an element scoring at most bound,
// from doc or a later document, ranks after its last element: below its
// score, or tying it from a higher document (RankedBefore). doc is never
// the document of a scored element, but may be the floor's.
func below(h *TopK, bound float64, doc storage.DocID) bool {
	last, full := h.last()
	return full && (bound < last.Score || bound == last.Score && doc > last.Doc)
}

// open counts the documents of iv exactly and keeps those that can still
// place as a group. While neither the TopK nor the floor is full, it
// scores the group's best at once, so that a cut-off comes to exist.
func (r *topkRun) open(iv entry) error {
	drive := 0
	for i, l := range r.lists {
		r.runs[i] = l.AppendDocCounts(iv.lo, iv.hi, r.runs[i][:0])
		occ, most := 0, 0
		for _, c := range r.runs[i] {
			occ, most = occ+c.N, max(most, c.N)
		}
		if err := r.Guard.TickN(occ); err != nil {
			return err
		}
		r.heads[i], r.counts[i] = 0, most
		if len(r.runs[i]) < len(r.runs[drive]) {
			drive = i
		}
	}
	// When a document missing from the list with the fewest cannot place,
	// under the other lists' actual maxima, only that list's documents need
	// bounding: it drives the merge.
	if r.counts[drive] = 0; r.canPlace(scoreBound(&r.Query, r.pairMax, r.counts), iv.lo) {
		drive = -1
	}
	g := group{lo: iv.lo, hi: iv.hi, from: int32(len(r.cands)), win: -1}
	best := candidate{doc: -1}
	// Merge the lists' ascending runs to bound each document exactly.
	for {
		doc := storage.DocID(-1)
		for i, run := range r.runs {
			if h := r.heads[i]; h < len(run) && (doc < 0 || run[h].Doc < doc) && (drive < 0 || i == drive) {
				doc = run[h].Doc
			}
		}
		if doc < 0 {
			break
		}
		for i, run := range r.runs {
			h := r.heads[i]
			for h < len(run) && run[h].Doc < doc {
				h++ // only the driving list's documents are bounded
			}
			r.counts[i] = 0
			if h < len(run) && run[h].Doc == doc {
				r.counts[i] = run[h].N
				h++
			}
			r.heads[i] = h
		}
		c := candidate{doc, r.bound()}
		if r.canPlace(c.bound, doc) {
			r.floor.Offer(ScoredNode{Doc: doc, Score: c.bound})
			r.cands = append(r.cands, c)
			if best.doc < 0 || candidateFirst(c, best) {
				best = c
			}
		}
	}
	g.to = int32(len(r.cands))
	r.groups = append(r.groups, g)
	e := entry{lo: best.doc, bound: best.bound, g: int32(len(r.groups) - 1)}
	_, full := r.tk.last()
	if _, floored := r.floor.last(); e.lo >= 0 && !full && !floored {
		return r.score(e)
	}
	r.push(e)
	return nil
}

// bound returns scoreBound of r.counts, through the memo when the counts
// fit its key: at most seven, each below 256.
func (r *topkRun) bound() float64 {
	key := uint64(1)
	for _, c := range r.counts {
		if c > 255 || key>>56 != 0 {
			return scoreBound(&r.Query, r.pairMax, r.counts)
		}
		key = key<<8 | uint64(c)
	}
	m := &r.memo[key*0x9e3779b97f4a7c15>>58] // Fibonacci hashing
	if m.key != key {
		*m = boundMemo{key, scoreBound(&r.Query, r.pairMax, r.counts)}
	}
	return m.bound
}

// push puts e on the heap if it holds a candidate that can place.
func (r *topkRun) push(e entry) {
	if e.lo >= 0 && r.canPlace(e.bound, e.lo) {
		r.heap = append(r.heap, e)
		siftUp(r.heap, len(r.heap)-1, entryFirst)
	}
}

// score runs the regular TermJoin restricted to the best candidate of e's
// group, feeding the TopK, and puts the group back under its next
// candidate while that can place. The group's first score decodes each
// list's window onto the group's interval into the arena, once, and makes
// a heap of the candidates that can still place; every document of the
// group is then scored over raw sub-slices of those windows.
func (r *topkRun) score(e entry) error {
	r.DocsEvaluated++
	g, a := &r.groups[e.g], r.topkArena
	if g.win < 0 {
		g.win = int32(len(a.bounds))
		for _, l := range r.lists {
			a.bounds = append(a.bounds, int32(len(a.ps)))
			a.ps = l.AppendRange(g.lo, g.hi, a.ps)
		}
		a.bounds = append(a.bounds, int32(len(a.ps)))
		keep := r.cands[g.from:g.from]
		for _, c := range r.cands[g.from:g.to] {
			if r.canPlace(c.bound, c.doc) {
				keep = append(keep, c)
			}
		}
		heapify(keep, candidateFirst)
		g.to = g.from + int32(len(keep))
	}
	b := a.bounds[g.win:][:len(r.lists)+1]
	for i := range r.sub {
		r.sub[i] = postings.NewRawList(a.ps[b[i]:b[i+1]]).Range(e.lo, e.lo+1)
	}
	r.tj.Query.Lists = r.sub
	if err := r.tj.Run(r.emit); err != nil {
		return err
	}
	rest := popHeap(r.cands[g.from:g.to], candidateFirst)
	if g.to = g.from + int32(len(rest)); len(rest) > 0 {
		r.push(entry{lo: rest[0].doc, bound: rest[0].bound, g: e.g})
	}
	return nil
}

// scoreBound upper-bounds the score of any element whose per-term
// occurrence counts are at most counts, under q's scorer, when one
// adjacent occurrence pair adds at most pairMax. It is monotone in every
// count, so it bounds every element of a document from the document's
// counts, and every document of an interval from its block maxima.
//
// A complex score is at most (base + proximity bonus) × 1, the child
// ratio being at most 1. Only a term switch — adjacent occurrences of
// different terms in position order — adds to the bonus. Every switch has
// an occurrence of a term other than the most frequent one on one side,
// and each occurrence borders at most two pairs, so of the occ−1 pairs at
// most 2·(occ − max_i counts[i]) pay.
func scoreBound(q *TermQuery, pairMax float64, counts []int) float64 {
	base := q.Scorer.Simple(counts)
	if !q.Complex {
		return base
	}
	occ, most := 0, 0
	for _, c := range counts {
		occ += c
		most = max(most, c)
	}
	if occ == 0 {
		return base
	}
	return base + pairMax*float64(min(occ-1, 2*(occ-most)))
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
