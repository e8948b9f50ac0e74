package exec

import (
	"sort"

	"repro/internal/index"
	"repro/internal/scoring"
	"repro/internal/storage"
)

// Comp1 is the first composite-of-standard-operators baseline of Sec. 6.1:
// the direct evaluation of the operator expression
//
//	σ_P(C) = ⊔_i γ_i(σ_{P_i}(C))
//
// For each term it performs an index lookup, materializes the full
// ancestor chain of every occurrence (one record per ancestor per
// occurrence — the per-term selection), sorts and groups the
// materialization by node id (γ), then unions the per-term groups and
// scores each node. The per-occurrence ancestor materialization and the
// sort are what make Comp1 degrade as term frequency grows, in contrast
// to TermJoin's push-each-element-once stack discipline.
type Comp1 struct {
	Index *index.Index
	Acc   *storage.Accessor
	Query TermQuery
	// Guard, when non-nil, is the cooperative cancellation and resource
	// budget, checked per materialized witness and per emitted group.
	Guard *Guard
}

// witnessRec is one materialized embedding of the per-term selection
// σ_{P_i}: the bound ancestor element and the bound text node, copied out
// of the store as the generic selection operator materializes witness
// trees (Sec. 3.2.1), plus the occurrence. The copies are the point: the
// composite plan pays for materializing one witness per (ancestor,
// occurrence) pair where TermJoin keeps a single stack frame per element.
type witnessRec struct {
	doc  storage.DocID
	ord  int32           // ancestor ordinal (the grouping key)
	anc  storage.NodeRec // materialized ancestor node
	leaf storage.NodeRec // materialized text node
	occ  scoring.Occ
}

// Run executes the baseline and emits the same result set as TermJoin
// (every element containing at least one query-term occurrence, scored),
// in (doc, ord) order.
func (c *Comp1) Run(emit Emit) error {
	if err := c.Query.validate("Comp1"); err != nil {
		return err
	}
	c.Guard.Attach(c.Acc)
	if err := c.Guard.Check(); err != nil {
		return err
	}
	nTerms := len(c.Query.Terms)
	terms := normalizeTerms(c.Index, c.Query.Terms)

	type groupKey struct {
		doc storage.DocID
		ord int32
	}
	type groupVal struct {
		counts []int
		occs   []scoring.Occ
	}
	groups := map[groupKey]*groupVal{}

	for ti := range terms {
		// Per-term "selection": materialize one witness per (ancestor,
		// occurrence) embedding, copying both bound node records.
		var recs []witnessRec
		for cur := c.Query.list(c.Index, terms, ti).Cursor(); cur.Valid(); cur.Advance() {
			p := cur.Cur()
			occ := scoring.Occ{Term: ti, Pos: p.Pos, Node: p.Node}
			leaf := *c.Acc.Node(p.Doc, p.Node)
			for a := leaf.Parent; a != storage.NoNode; {
				if err := c.Guard.Tick(); err != nil {
					return err
				}
				arec := *c.Acc.Node(p.Doc, a)
				recs = append(recs, witnessRec{doc: p.Doc, ord: a, anc: arec, leaf: leaf, occ: occ})
				a = arec.Parent
			}
		}
		// Per-term grouping γ_i: sort by node id, then run-length group.
		sort.Slice(recs, func(i, j int) bool {
			if recs[i].doc != recs[j].doc {
				return recs[i].doc < recs[j].doc
			}
			if recs[i].ord != recs[j].ord {
				return recs[i].ord < recs[j].ord
			}
			return recs[i].occ.Pos < recs[j].occ.Pos
		})
		for i := 0; i < len(recs); {
			j := i
			k := groupKey{recs[i].doc, recs[i].ord}
			g := groups[k]
			if g == nil {
				g = &groupVal{counts: make([]int, nTerms)}
				groups[k] = g
			}
			for j < len(recs) && recs[j].doc == k.doc && recs[j].ord == k.ord {
				g.counts[ti]++
				if c.Query.Complex {
					g.occs = append(g.occs, recs[j].occ)
				}
				j++
			}
			i = j
		}
	}

	// Union and score, in document order.
	keys := make([]groupKey, 0, len(groups))
	for k := range groups {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].doc != keys[j].doc {
			return keys[i].doc < keys[j].doc
		}
		return keys[i].ord < keys[j].ord
	})
	for _, k := range keys {
		g := groups[k]
		var score float64
		if c.Query.Complex {
			nz := countScoredChildren(c.Acc, k.doc, k.ord, g.occs)
			total := int(c.Acc.ChildCountNav(k.doc, k.ord))
			sort.Slice(g.occs, func(i, j int) bool { return g.occs[i].Pos < g.occs[j].Pos })
			score = c.Query.Scorer.Complex(g.counts, g.occs, nz, total)
		} else {
			score = c.Query.Scorer.Simple(g.counts)
		}
		if err := c.Guard.NoteEmit(); err != nil {
			return err
		}
		emit(ScoredNode{Doc: k.doc, Ord: k.ord, Score: score})
	}
	return nil
}

// countScoredChildren determines how many direct children of (doc, ord)
// contain at least one of the occurrences — the non-zero-scored-children
// statistic of the complex scoring function. Each occurrence requires a
// containment probe against the child list (baselines lack the stack's
// free child bookkeeping).
func countScoredChildren(acc *storage.Accessor, doc storage.DocID, ord int32, occs []scoring.Occ) int {
	rec := acc.Node(doc, ord)
	n := 0
	child := rec.FirstChild
	//tixlint:ignore guardcheck bounded by one parent's direct-child fan-out; every access still charges the caller-attached budget, and the caller checks at its next NoteEmit
	for child != storage.NoNode {
		crec := acc.Node(doc, child)
		for _, o := range occs {
			if o.Pos >= crec.Start && o.Pos <= crec.End {
				n++
				break
			}
		}
		child = crec.NextSibling
	}
	return n
}

// Comp2 is the second composite baseline ("pushing structural joins
// further down in the evaluation plan", Sec. 6.1): for each query term it
// runs a stack-based structural join between the full element extent of
// every document and the term's posting positions, producing per-element
// counts; the per-term grouped outputs are then merge-unioned and scored.
// Scanning the entire element extent once per term is what gives Comp2 its
// large, term-frequency-insensitive cost, exactly as in Table 1 (280–850 s
// nearly flat across frequencies).
type Comp2 struct {
	Index *index.Index
	Acc   *storage.Accessor
	Query TermQuery
	// Guard, when non-nil, is the cooperative cancellation and resource
	// budget, checked per element scanned by the per-term structural
	// joins and per emitted group.
	Guard *Guard
}

// Run executes the baseline; output matches TermJoin's result set, in
// (doc, ord) order.
func (c *Comp2) Run(emit Emit) error {
	if err := c.Query.validate("Comp2"); err != nil {
		return err
	}
	c.Guard.Attach(c.Acc)
	if err := c.Guard.Check(); err != nil {
		return err
	}
	nTerms := len(c.Query.Terms)
	terms := normalizeTerms(c.Index, c.Query.Terms)
	lists := make([]index.List, nTerms)
	for i := range terms {
		lists[i] = c.Query.list(c.Index, terms, i)
	}

	for _, doc := range c.Index.Docs() {
		elements := doc.Elements()
		// Per-term structural join against the full element extent.
		perTerm := make([][]OrdCount, nTerms)
		occsByOrd := map[int32][]scoring.Occ{}
		for ti := range terms {
			var positions []uint32
			for cur := lists[ti].Range(doc.ID, doc.ID+1).Cursor(); cur.Valid(); cur.Advance() {
				p := cur.Cur()
				positions = append(positions, p.Pos)
				if c.Query.Complex {
					// The composite plan tags occurrences onto every
					// containing element later via the join output; keep
					// them here for scoring.
					occsByOrd[p.Node] = append(occsByOrd[p.Node], scoring.Occ{Term: ti, Pos: p.Pos, Node: p.Node})
				}
			}
			joined, err := StructuralJoinCountGuarded(c.Acc, doc.ID, elements, positions, c.Guard)
			if err != nil {
				return err
			}
			perTerm[ti] = joined
		}
		// Merge-union the per-term grouped outputs (all in document order).
		idxs := make([]int, nTerms)
		for {
			bestOrd := int32(-1)
			for ti := range perTerm {
				if idxs[ti] < len(perTerm[ti]) {
					o := perTerm[ti][idxs[ti]].Ord
					if bestOrd < 0 || o < bestOrd {
						bestOrd = o
					}
				}
			}
			if bestOrd < 0 {
				break
			}
			counts := make([]int, nTerms)
			for ti := range perTerm {
				if idxs[ti] < len(perTerm[ti]) && perTerm[ti][idxs[ti]].Ord == bestOrd {
					counts[ti] = perTerm[ti][idxs[ti]].Count
					idxs[ti]++
				}
			}
			var score float64
			if c.Query.Complex {
				occs := collectSubtreeOccs(c.Acc, doc, bestOrd, occsByOrd)
				nz := countScoredChildren(c.Acc, doc.ID, bestOrd, occs)
				total := int(c.Acc.ChildCountNav(doc.ID, bestOrd))
				score = c.Query.Scorer.Complex(counts, occs, nz, total)
			} else {
				score = c.Query.Scorer.Simple(counts)
			}
			if err := c.Guard.NoteEmit(); err != nil {
				return err
			}
			emit(ScoredNode{Doc: doc.ID, Ord: bestOrd, Score: score})
		}
	}
	return nil
}

// collectSubtreeOccs gathers the occurrences inside the subtree of ord, in
// position order.
func collectSubtreeOccs(acc *storage.Accessor, doc *storage.Document, ord int32, occsByOrd map[int32][]scoring.Occ) []scoring.Occ {
	end := doc.SubtreeEnd(ord)
	var out []scoring.Occ
	for i := ord; i < end; i++ {
		if occs, ok := occsByOrd[i]; ok {
			out = append(out, occs...)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Pos < out[j].Pos })
	return out
}
