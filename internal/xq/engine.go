package xq

import (
	"cmp"
	"fmt"
	"slices"
	"sort"

	"repro/internal/exec"
	"repro/internal/index"
	"repro/internal/scoring"
	"repro/internal/storage"
	"repro/internal/tokenize"
	"repro/internal/xmltree"
)

// Engine evaluates parsed queries against a store and its inverted index,
// using the physical access methods of internal/exec: PhraseFinder turns
// multi-word phrases into pseudo-term posting lists, TermJoin generates
// scores in one stack-based merge pass, StackPick eliminates redundant
// granularities, and the Threshold clause maps onto the top-k machinery.
type Engine struct {
	Store *storage.Store
	Index *index.Index
	// Stats, when non-nil, accumulates the store-access statistics of
	// every evaluation run through this engine (structural navigation,
	// TermJoin scoring, and result materialization all read through one
	// accounting accessor per Eval).
	Stats *storage.AccessStats
	// Guard, when non-nil, is the cooperative cancellation and resource
	// budget for evaluations run through this engine: it is checked during
	// structural navigation, passed into every access method the engine
	// dispatches to, and charged with every store access (the evaluation
	// accessor is attached to the guard's budget).
	Guard *exec.Guard
}

// noteStats folds an evaluation accessor's counters into the engine's
// optional Stats sink.
func (e *Engine) noteStats(acc *storage.Accessor) {
	if e.Stats != nil {
		e.Stats.Add(acc.Stats)
	}
}

// Result is one query result: the scored element and its materialized
// subtree. For join queries (the Query 3 shape), Sim carries the
// similarity component of the score and Right the joined right-side
// element.
type Result struct {
	Doc   storage.DocID
	Ord   int32
	Score float64
	Node  *xmltree.Node
	Sim   float64
	Right *xmltree.Node
}

// EvalString parses and evaluates a query.
func (e *Engine) EvalString(src string) ([]Result, error) {
	q, err := Parse(src)
	if err != nil {
		return nil, err
	}
	return e.Eval(q)
}

// Eval evaluates a parsed query, dispatching between the single-For
// (Query 1/2) and the multi-For join (Query 3) shapes.
func (e *Engine) Eval(q *Query) ([]Result, error) {
	if err := e.Guard.Check(); err != nil {
		return nil, err
	}
	if len(q.Fors) == 0 {
		return nil, fmt.Errorf("xq: query has no For clause")
	}
	if len(q.Fors) > 1 {
		return e.evalJoin(q)
	}
	if q.Let != nil || q.Where != nil || q.Combine != nil {
		return nil, fmt.Errorf("xq: Let/Where/ScoreBar clauses require the multi-For join shape")
	}
	return e.evalSingle(q)
}

// evalSingle evaluates the Query 1/2 shape.
func (e *Engine) evalSingle(q *Query) ([]Result, error) {
	doc := e.Store.DocByName(q.Fors[0].Path.Document)
	if doc == nil {
		return nil, fmt.Errorf("xq: document %q not loaded", q.Fors[0].Path.Document)
	}
	acc := e.Guard.Attach(storage.NewAccessor(e.Store))
	defer e.noteStats(acc)

	anchors, expand, err := e.evalSteps(acc, doc, q.Fors[0].Path.Steps)
	if err != nil {
		return nil, err
	}

	// Variable sanity: Score/Pick/Threshold must reference the For var.
	for _, v := range []struct {
		name string
		got  string
	}{
		{"Score", scoreVar(q)},
		{"Pick", pickVar(q)},
		{"Threshold", threshVar(q)},
	} {
		if v.got != "" && v.got != q.Fors[0].Var {
			return nil, fmt.Errorf("xq: %s clause references $%s, but the For clause binds $%s", v.name, v.got, q.Fors[0].Var)
		}
	}

	var results []Result
	if q.Score == nil {
		// Pure structural query: candidates with null scores.
		cands := anchors
		if expand {
			cands = expandDescendantOrSelf(doc, anchors)
		}
		for _, ord := range cands {
			results = append(results, Result{Doc: doc.ID, Ord: ord, Score: 0})
		}
	} else {
		results, err = e.scoreAndPick(acc, doc, anchors, expand, q)
		if err != nil {
			return nil, err
		}
	}

	results = rank(results, q)
	// Materialize result subtrees.
	for i := range results {
		if err := e.Guard.Tick(); err != nil {
			return nil, err
		}
		results[i].Node = acc.Materialize(results[i].Doc, results[i].Ord)
	}
	return results, nil
}

func scoreVar(q *Query) string {
	if q.Score == nil {
		return ""
	}
	return q.Score.Var
}

func pickVar(q *Query) string {
	if q.Pick == nil {
		return ""
	}
	return q.Pick.Var
}

func threshVar(q *Query) string {
	if q.Threshold == nil {
		return ""
	}
	return q.Threshold.Var
}

// evalSteps evaluates the structural steps, returning the anchor node set
// and whether a trailing descendant-or-self::* step expands each anchor to
// every element of its subtree.
func (e *Engine) evalSteps(acc *storage.Accessor, doc *storage.Document, steps []Step) (anchors []int32, expand bool, err error) {
	cur := []int32{0} // the document root
	rootSet := true
	for i, s := range steps {
		switch s.Kind {
		case StepDescendantOrSelf:
			if i != len(steps)-1 {
				return nil, false, fmt.Errorf("xq: descendant-or-self::* is only supported as the final step")
			}
			return cur, true, nil
		case StepDescendant:
			cur, err = e.descendants(acc, doc, cur, s.Name, rootSet)
			if err != nil {
				return nil, false, err
			}
		case StepChild:
			cur, err = e.children(acc, doc, cur, s.Name)
			if err != nil {
				return nil, false, err
			}
		case StepPredicate:
			kept := cur[:0]
			for _, ord := range cur {
				if err := e.Guard.Tick(); err != nil {
					return nil, false, err
				}
				ok, perr := e.predicateHolds(acc, doc, ord, s.Pred)
				if perr != nil {
					return nil, false, perr
				}
				if ok {
					kept = append(kept, ord)
				}
			}
			cur = kept
		}
		rootSet = false
	}
	return cur, false, nil
}

// descendants returns elements with the given tag (or any element for "*")
// that are descendants of any node in from, in document order. When from
// is the whole-document root the tag extent answers directly.
func (e *Engine) descendants(acc *storage.Accessor, doc *storage.Document, from []int32, name string, fromRoot bool) ([]int32, error) {
	extent := e.tagExtent(doc, name)
	if fromRoot {
		// The // axis hangs off the document node, which sits above the
		// root element, so the whole extent (including the root element)
		// qualifies.
		return extent, nil
	}
	// Structural join: from-as-ancestors × extent-as-descendants.
	pairs, err := exec.AncDescPairsGuarded(acc, doc.ID, from, extent, e.Guard)
	if err != nil {
		return nil, err
	}
	out := make([]int32, 0, len(pairs))
	for _, pr := range pairs {
		if err := e.Guard.Tick(); err != nil {
			return nil, err
		}
		out = append(out, pr[1])
	}
	slices.Sort(out)
	return slices.Compact(out), nil
}

func (e *Engine) tagExtent(doc *storage.Document, name string) []int32 {
	if name == "*" {
		return doc.Elements()
	}
	tid, ok := e.Store.Tags.Lookup(name)
	if !ok {
		return nil
	}
	return doc.TagExtent(tid)
}

func (e *Engine) children(acc *storage.Accessor, doc *storage.Document, from []int32, name string) ([]int32, error) {
	var out []int32
	for _, ord := range from {
		for c := acc.Node(doc.ID, ord).FirstChild; c != storage.NoNode; {
			if err := e.Guard.Tick(); err != nil {
				return nil, err
			}
			rec := acc.Node(doc.ID, c)
			if rec.Kind == xmltree.Element && (name == "*" || e.Store.Tags.Name(rec.Tag) == name) {
				out = append(out, c)
			}
			c = rec.NextSibling
		}
	}
	slices.Sort(out)
	return out, nil
}

// predicateHolds evaluates [path="v"], [path], or [@attr="v"] relative to
// (doc, ord).
func (e *Engine) predicateHolds(acc *storage.Accessor, doc *storage.Document, ord int32, p *Predicate) (bool, error) {
	if p.Attr != "" {
		n := doc.TreeNode(ord)
		if n == nil {
			return false, nil
		}
		got, ok := n.Attr(p.Attr)
		if p.Exists {
			return ok, nil
		}
		return ok && got == p.Value, nil
	}
	// Walk the child chain names[0]/names[1]/… .
	cur := []int32{ord}
	for _, name := range p.Names {
		var err error
		cur, err = e.children(acc, doc, cur, name)
		if err != nil {
			return false, err
		}
		if len(cur) == 0 {
			return false, nil
		}
	}
	if p.Exists {
		return len(cur) > 0, nil
	}
	for _, c := range cur {
		var text string
		if p.Text {
			text = directTextOf(acc, doc, c)
		} else {
			text = acc.SubtreeText(doc.ID, c)
		}
		if text == p.Value {
			return true, nil
		}
	}
	return false, nil
}

func directTextOf(acc *storage.Accessor, doc *storage.Document, ord int32) string {
	out := ""
	for c := acc.Node(doc.ID, ord).FirstChild; c != storage.NoNode; {
		rec := acc.Node(doc.ID, c)
		if rec.Kind == xmltree.Text {
			if out != "" {
				out += " "
			}
			out += rec.Text
		}
		c = rec.NextSibling
	}
	return out
}

func expandDescendantOrSelf(doc *storage.Document, anchors []int32) []int32 {
	var out []int32
	for _, a := range anchors {
		end := doc.SubtreeEnd(a)
		for i := a; i < end; i++ {
			if doc.Nodes[i].Kind == xmltree.Element {
				out = append(out, i)
			}
		}
	}
	return out
}

// scoreAndPick runs the IR part of the query: score generation via
// PhraseFinder + TermJoin, then the optional Pick, restricted to the
// anchors' subtrees.
func (e *Engine) scoreAndPick(acc *storage.Accessor, doc *storage.Document, anchors []int32, expand bool, q *Query) ([]Result, error) {
	if !expand {
		// Scoring without granularity expansion: each anchor is scored on
		// its own subtree.
		return e.scoreAnchorsDirectly(acc, doc, anchors, q)
	}
	// Build the pseudo-term posting lists: 0.8-weighted primary phrases,
	// 0.6-weighted secondary phrases (ScoreFoo of Fig. 9).
	var lists []index.List
	var weights []float64
	var names []string
	add := func(phrase string, w float64) error {
		terms := e.Index.Tokenizer().SplitPhrase(phrase)
		if len(terms) == 0 {
			return fmt.Errorf("xq: empty phrase in Score clause")
		}
		var l index.List
		if len(terms) == 1 {
			l = e.Index.List(e.Index.Tokenizer().Normalize(terms[0]))
		} else {
			pf := &exec.PhraseFinder{Index: e.Index, Phrase: terms, Guard: e.Guard}
			ms, err := exec.CollectPhrase(pf.Run)
			if err != nil {
				return err
			}
			l = exec.PhrasePostings(ms)
		}
		lists = append(lists, l.Range(doc.ID, doc.ID+1)) // the bound document's postings only
		weights = append(weights, w)
		names = append(names, phrase)
		return nil
	}
	for _, ph := range q.Score.Primary {
		if err := add(ph, q.Score.PrimaryWeight); err != nil {
			return nil, err
		}
	}
	for _, ph := range q.Score.Secondary {
		if err := add(ph, q.Score.SecondaryWeight); err != nil {
			return nil, err
		}
	}

	tj := &exec.TermJoin{
		Index: e.Index,
		Acc:   acc,
		Query: exec.TermQuery{
			Terms:  names,
			Lists:  lists,
			Scorer: weightedScorer(weights),
		},
		Guard: e.Guard,
	}
	scored, err := exec.Collect(tj.Run)
	if err != nil {
		return nil, err
	}
	slices.SortFunc(scored, func(a, b exec.ScoredNode) int { return cmp.Compare(a.Ord, b.Ord) })

	// One Pick arena, stream buffer and decision logic serve every anchor.
	var results []Result
	var arena exec.PickArena
	var stream []exec.PickNode
	funcs := exec.DefaultPickFuncs(0.8)
	if q.Pick != nil && q.Pick.HasThresh {
		funcs = exec.DefaultPickFuncs(q.Pick.Threshold)
	}
	for _, anchor := range anchors {
		end := doc.SubtreeEnd(anchor)
		// Scored elements within the anchor subtree, document order.
		lo := sort.Search(len(scored), func(i int) bool { return scored[i].Ord >= anchor })
		hi := sort.Search(len(scored), func(i int) bool { return scored[i].Ord >= end })
		window := scored[lo:hi]
		if q.Pick == nil {
			for _, n := range window {
				results = append(results, Result{Doc: doc.ID, Ord: n.Ord, Score: n.Score})
			}
			continue
		}
		stream = stream[:0]
		for _, n := range window {
			rec := doc.Nodes[n.Ord]
			stream = append(stream, exec.PickNode{Ord: n.Ord, Start: rec.Start, End: rec.End, Level: rec.Level, Score: n.Score, HasScore: true})
		}
		picked, err := arena.Pick(stream, funcs, e.Guard)
		if err != nil {
			return nil, err
		}
		for _, p := range picked {
			results = append(results, Result{Doc: doc.ID, Ord: p.Ord, Score: p.Score})
		}
	}
	return results, nil
}

// rank applies the Threshold clause and Sortby to results in evaluation
// order: the V condition (strictly greater, as in the algebra), then stop
// after K as a top-k, else Sortby's stable score-descending sort.
func rank(rs []Result, q *Query) []Result {
	th := q.Threshold
	if th != nil && th.HasMin {
		rs = slices.DeleteFunc(rs, func(r Result) bool { return r.Score <= th.MinScore })
	}
	if th != nil && th.HasStopK {
		return stopAfter(rs, th.StopK)
	}
	if q.SortBy {
		slices.SortStableFunc(rs, func(a, b Result) int { return cmp.Compare(b.Score, a.Score) })
	}
	return rs
}

// stopAfter returns the first k results of a stable score-descending order
// of rs without sorting the rest: exec.TopK's bounded heap ranks each
// result by score and then input position, so ties keep their input order.
func stopAfter(rs []Result, k int) []Result {
	tk := exec.NewTopK(k)
	for i, r := range rs {
		tk.Offer(exec.ScoredNode{Ord: int32(i), Score: r.Score})
	}
	top := tk.Results()
	out := make([]Result, len(top))
	for i, n := range top {
		out[i] = rs[n.Ord]
	}
	return out
}

// scoreAnchorsDirectly scores each anchor element on its whole subtree
// content (no granularity expansion).
func (e *Engine) scoreAnchorsDirectly(acc *storage.Accessor, doc *storage.Document, anchors []int32, q *Query) ([]Result, error) {
	var results []Result
	tok := e.Index.Tokenizer()
	for _, ord := range anchors {
		if err := e.Guard.Tick(); err != nil {
			return nil, err
		}
		text := acc.SubtreeText(doc.ID, ord)
		score := 0.0
		for _, ph := range q.Score.Primary {
			score += q.Score.PrimaryWeight * float64(countPhraseIn(tok, text, ph))
		}
		for _, ph := range q.Score.Secondary {
			score += q.Score.SecondaryWeight * float64(countPhraseIn(tok, text, ph))
		}
		results = append(results, Result{Doc: doc.ID, Ord: ord, Score: score})
	}
	return results, nil
}

func countPhraseIn(tok *tokenize.Tokenizer, text, phrase string) int {
	terms := tok.SplitPhrase(phrase)
	switch len(terms) {
	case 0:
		return 0
	case 1:
		return tok.Count(text, terms[0])
	default:
		return tok.CountPhrase(text, terms)
	}
}

// weightedScorer builds a per-pseudo-term weighted-sum scorer.
func weightedScorer(weights []float64) exec.Scorer {
	return exec.DefaultScorer{
		SimpleFn: scoring.SimpleScorer{Weights: weights},
	}
}
