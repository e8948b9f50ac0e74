package exec

import (
	"repro/internal/index"
	"repro/internal/scoring"
	"repro/internal/storage"
)

// ChildCountMode selects how TermJoin obtains the total child count a
// complex scoring function needs.
type ChildCountMode int

const (
	// ChildCountNavigate fetches the count by navigating the child list in
	// the store — "a data access to the database ... and some navigation"
	// — the plain TermJoin of the paper.
	ChildCountNavigate ChildCountMode = iota
	// ChildCountIndexed reads the count from the parent/child-count index
	// in O(1) — the Enhanced TermJoin.
	ChildCountIndexed
)

// TermJoin is the stack-based score-generating access method of Fig. 11.
// It makes a single merge pass over the per-term posting lists (ordered by
// start position), maintains the stack of currently-open ancestor
// elements, accumulates per-term occurrence counters (and, for complex
// scoring, the occurrence buffer) on each stack entry, and emits every
// element with its score when it is popped — at which point all term
// occurrences in its subtree have been seen.
type TermJoin struct {
	Index *index.Index
	Acc   *storage.Accessor
	Query TermQuery
	// ChildCounts is consulted only for complex scoring.
	ChildCounts ChildCountMode
	// Guard, when non-nil, is the cooperative cancellation and resource
	// budget: checked once per posting merged and once per emitted
	// element, so a canceled or over-budget join stops within one check
	// interval. The guard's access budget is attached to Acc at Run.
	Guard *Guard
	// Arena, when non-nil, supplies reusable run state (cursor structs,
	// the element stack and its freelist, push scratch) so repeated Runs —
	// TopKTermJoin executes one per surviving document — stay allocation-
	// free. Runs sharing an arena must not overlap; see DESIGN.md §15 for
	// the ownership rules.
	Arena *TJArena
}

// tjPush is one pending ancestor push (ord plus region end).
type tjPush struct {
	ord int32
	end uint32
}

// TJArena holds the allocation-heavy run state of a TermJoin for reuse
// across runs. The zero value is ready. An arena is owned by exactly one
// running TermJoin at a time; it holds no pooled resources that outlive it,
// so dropping it is safe at any quiescent point.
type TJArena struct {
	cursors []index.Cursor
	curPtrs []*index.Cursor
	stack   []*tjEntry
	free    []*tjEntry
	toPush  []tjPush
}

// tjEntry is one stack frame: an open element with the occurrence
// statistics of the part of its subtree seen so far.
type tjEntry struct {
	ord    int32
	end    uint32
	counts []int
	// Complex-scoring bookkeeping (the if(!s) sections of Fig. 11):
	occs           []scoring.Occ
	scoredChildren int   // children known to contain ≥1 occurrence
	lastText       int32 // last direct text child credited
}

// Run executes the term join, emitting every element that contains at
// least one occurrence of any query term, with its score. Elements are
// emitted in pop order (postorder per document, documents in id order).
func (t *TermJoin) Run(emit Emit) error {
	if err := t.Query.validate("TermJoin"); err != nil {
		return err
	}
	t.Guard.Attach(t.Acc)
	if err := t.Guard.Check(); err != nil {
		return err
	}
	nTerms := len(t.Query.Terms)
	var terms []string
	if t.Query.Lists == nil {
		// Only the index-lookup path reads the normalized terms; skipping
		// the remap keeps repeated list-fed runs (top-k) allocation-free.
		terms = normalizeTerms(t.Index, t.Query.Terms)
	}
	ar := t.Arena
	if ar == nil {
		ar = &TJArena{}
	}
	if cap(ar.cursors) < nTerms {
		ar.cursors = make([]index.Cursor, nTerms)
		ar.curPtrs = make([]*index.Cursor, nTerms)
	}
	cs := ar.cursors[:nTerms]
	cursors := ar.curPtrs[:nTerms]
	for i := 0; i < nTerms; i++ {
		t.Query.list(t.Index, terms, i).Reset(&cs[i])
		cursors[i] = &cs[i]
	}

	stack := ar.stack[:0]
	curDoc := storage.DocID(-1)

	// Freelist: stack frames are recycled so the whole merge allocates
	// O(max depth) entries rather than one per element — and with a shared
	// arena they survive across runs entirely.
	free := ar.free
	defer func() {
		ar.stack = stack[:0]
		ar.free = free
	}()
	alloc := func(ord int32, end uint32) *tjEntry {
		if n := len(free); n > 0 {
			e := free[n-1]
			free = free[:n-1]
			e.ord, e.end = ord, end
			if len(e.counts) != nTerms {
				e.counts = make([]int, nTerms)
			} else {
				for i := range e.counts {
					e.counts[i] = 0
				}
			}
			e.occs = e.occs[:0]
			e.scoredChildren = 0
			e.lastText = storage.NoNode
			return e
		}
		return &tjEntry{ord: ord, end: end, counts: make([]int, nTerms), lastText: storage.NoNode}
	}

	pop := func() error {
		popped := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if len(stack) > 0 {
			top := stack[len(stack)-1]
			for i, c := range popped.counts {
				top.counts[i] += c
			}
			if t.Query.Complex {
				top.occs = append(top.occs, popped.occs...)
				top.scoredChildren++
			}
		}
		var score float64
		if t.Query.Complex {
			total := t.totalChildren(curDoc, popped.ord)
			score = t.Query.Scorer.Complex(popped.counts, popped.occs, popped.scoredChildren, total)
		} else {
			score = t.Query.Scorer.Simple(popped.counts)
		}
		if err := t.Guard.NoteEmit(); err != nil {
			return err
		}
		emit(ScoredNode{Doc: curDoc, Ord: popped.ord, Score: score})
		free = append(free, popped)
		return nil
	}
	flush := func() error {
		for len(stack) > 0 {
			if err := pop(); err != nil {
				return err
			}
		}
		return nil
	}

	// Pending-push scratch, reused across occurrences (and, via the arena,
	// across runs): declaring it in the loop body would allocate once per
	// merged posting.
	toPush := ar.toPush
	defer func() { ar.toPush = toPush[:0] }()

	for {
		if err := t.Guard.Tick(); err != nil {
			return err
		}
		// t-min: the cursor with the smallest (doc, pos).
		best := -1
		for i, c := range cursors {
			if !c.Valid() {
				continue
			}
			if best < 0 || c.Cur().Less(cursors[best].Cur()) {
				best = i
			}
		}
		if best < 0 {
			return flush()
		}
		p := cursors[best].Cur()
		cursors[best].Advance()

		if p.Doc != curDoc {
			if err := flush(); err != nil {
				return err
			}
			curDoc = p.Doc
		}
		// Close elements that end before this occurrence.
		for len(stack) > 0 && stack[len(stack)-1].end < p.Pos {
			if err := pop(); err != nil {
				return err
			}
		}
		// Push the ancestors of the occurrence's text node that are not yet
		// on stack (outermost first). The stack always holds a contiguous
		// ancestor chain, so the walk stops at the first element already on
		// top. Each element is pushed exactly once over the whole run; the
		// node record read during the walk supplies the region end, so no
		// second store access is needed at push time.
		toPush = toPush[:0]
		a := t.Acc.Node(p.Doc, p.Node).Parent
		for a != storage.NoNode && (len(stack) == 0 || stack[len(stack)-1].ord != a) {
			rec := t.Acc.Node(p.Doc, a)
			toPush = append(toPush, tjPush{a, rec.End})
			a = rec.Parent
		}
		for i := len(toPush) - 1; i >= 0; i-- {
			stack = append(stack, alloc(toPush[i].ord, toPush[i].end))
		}
		// Credit the occurrence to the deepest open element.
		top := stack[len(stack)-1]
		top.counts[best]++
		if t.Query.Complex {
			top.occs = append(top.occs, scoring.Occ{Term: best, Pos: p.Pos, Node: p.Node})
			if top.lastText != p.Node {
				top.scoredChildren++
				top.lastText = p.Node
			}
		}
	}
}

func (t *TermJoin) totalChildren(doc storage.DocID, ord int32) int {
	switch t.ChildCounts {
	case ChildCountIndexed:
		_, c := t.Acc.ChildCountIndexed(doc, ord)
		return int(c)
	default:
		return int(t.Acc.ChildCountNav(doc, ord))
	}
}

// RunTermJoin is a convenience wrapper: it builds and runs a TermJoin over
// idx with a fresh accessor and returns the collected results.
func RunTermJoin(idx *index.Index, q TermQuery, mode ChildCountMode) ([]ScoredNode, error) {
	tj := &TermJoin{
		Index:       idx,
		Acc:         storage.NewAccessor(idx.Store()),
		Query:       q,
		ChildCounts: mode,
	}
	return Collect(tj.Run)
}
