package exec

import (
	"sort"

	"repro/internal/index"
	"repro/internal/scoring"
	"repro/internal/storage"
)

// GenMeet is the Generalized Meet baseline of Sec. 6.1: the adaptation of
// the meet operator of Schmidt, Kersten and Windhouwer (ICDE 2001) to the
// term-join problem. Where the original meet finds only the lowest common
// ancestor of a term set, the generalization outputs all common ancestors
// (by traversing up the ancestor chain) as well as ancestors containing
// only a subset of the terms, with correspondingly lower scores.
//
// The implementation propagates occurrence counts level by level: the text
// nodes containing occurrences seed the deepest frontier, and each round
// groups the current frontier by parent (hash grouping on node id, as the
// meet algorithm's "grouping based on node id" prescribes) until the roots
// are reached. Every distinct ancestor is finalized and scored exactly
// once — the same output as TermJoin — but the per-level hash grouping and
// re-bucketing give it a constant-factor disadvantage that grows with the
// occurrence count, matching the up-to-4× (simple) and up-to-8× (complex)
// gaps the paper reports.
type GenMeet struct {
	Index *index.Index
	Acc   *storage.Accessor
	Query TermQuery
	// Guard, when non-nil, is the cooperative cancellation and resource
	// budget, checked per seeded occurrence and per finalized node.
	Guard *Guard
}

// Run executes the baseline; output matches TermJoin's result set, emitted
// deepest-level-first per document, each node exactly once.
func (g *GenMeet) Run(emit Emit) error {
	if err := g.Query.validate("GenMeet"); err != nil {
		return err
	}
	g.Guard.Attach(g.Acc)
	if err := g.Guard.Check(); err != nil {
		return err
	}
	nTerms := len(g.Query.Terms)
	terms := normalizeTerms(g.Index, g.Query.Terms)
	lists := make([]index.List, nTerms)
	for i := range terms {
		lists[i] = g.Query.list(g.Index, terms, i)
	}

	for _, doc := range g.Index.Docs() {
		type acc struct {
			counts         []int
			occs           []scoring.Occ
			scoredChildren int
		}
		// Bucket contributions by level, then by node.
		levels := map[uint16]map[int32]*acc{}
		maxLevel := uint16(0)
		seed := func(ord int32, ti int, occ scoring.Occ) {
			rec := g.Acc.Node(doc.ID, ord)
			lv := rec.Level
			m := levels[lv]
			if m == nil {
				m = map[int32]*acc{}
				levels[lv] = m
			}
			a := m[ord]
			if a == nil {
				a = &acc{counts: make([]int, nTerms)}
				m[ord] = a
			}
			a.counts[ti]++
			if g.Query.Complex {
				a.occs = append(a.occs, occ)
			}
			if lv > maxLevel {
				maxLevel = lv
			}
		}
		any := false
		for ti := range terms {
			for cur := lists[ti].Range(doc.ID, doc.ID+1).Cursor(); cur.Valid(); cur.Advance() {
				p := cur.Cur()
				if err := g.Guard.Tick(); err != nil {
					return err
				}
				any = true
				// The occurrence seeds the text node's parent element.
				parent := g.Acc.Node(p.Doc, p.Node).Parent
				if parent == storage.NoNode {
					continue
				}
				seed(parent, ti, scoring.Occ{Term: ti, Pos: p.Pos, Node: p.Node})
			}
		}
		if !any {
			continue
		}
		// Count distinct relevant children per node while propagating.
		for lv := maxLevel; ; lv-- {
			m := levels[lv]
			// Deterministic order within a level.
			ords := make([]int32, 0, len(m))
			for ord := range m {
				ords = append(ords, ord)
			}
			sort.Slice(ords, func(i, j int) bool { return ords[i] < ords[j] })
			for _, ord := range ords {
				if err := g.Guard.Tick(); err != nil {
					return err
				}
				a := m[ord]
				var score float64
				if g.Query.Complex {
					// Direct text children with occurrences also count as
					// scored children.
					nz := a.scoredChildren + distinctTextChildren(g.Acc, doc.ID, ord, a.occs)
					total := int(g.Acc.ChildCountNav(doc.ID, ord))
					sort.Slice(a.occs, func(i, j int) bool { return a.occs[i].Pos < a.occs[j].Pos })
					score = g.Query.Scorer.Complex(a.counts, a.occs, nz, total)
				} else {
					score = g.Query.Scorer.Simple(a.counts)
				}
				if err := g.Guard.NoteEmit(); err != nil {
					return err
				}
				emit(ScoredNode{Doc: doc.ID, Ord: ord, Score: score})
				// Propagate to the parent's level bucket.
				parent := g.Acc.Node(doc.ID, ord).Parent
				if parent == storage.NoNode {
					continue
				}
				plv := g.Acc.Node(doc.ID, parent).Level
				pm := levels[plv]
				if pm == nil {
					pm = map[int32]*acc{}
					levels[plv] = pm
				}
				pa := pm[parent]
				if pa == nil {
					pa = &acc{counts: make([]int, nTerms)}
					pm[parent] = pa
				}
				for i, cnt := range a.counts {
					pa.counts[i] += cnt
				}
				if g.Query.Complex {
					pa.occs = append(pa.occs, a.occs...)
					pa.scoredChildren++
				}
			}
			if lv == 0 {
				break
			}
		}
	}
	return nil
}

// distinctTextChildren counts the distinct direct text children of
// (doc, ord) among the occurrence buffer.
func distinctTextChildren(a *storage.Accessor, doc storage.DocID, ord int32, occs []scoring.Occ) int {
	seen := map[int32]bool{}
	n := 0
	//tixlint:ignore guardcheck bounded by one node's occurrence buffer; accesses charge the caller-attached budget and GenMeet ticks per merged posting
	for _, o := range occs {
		if seen[o.Node] {
			continue
		}
		seen[o.Node] = true
		if a.Node(doc, o.Node).Parent == ord {
			n++
		}
	}
	return n
}
