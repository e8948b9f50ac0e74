package xq

import (
	"cmp"
	"slices"
	"sort"

	"repro/internal/exec"
	"repro/internal/index"
	"repro/internal/scoring"
	"repro/internal/storage"
	"repro/internal/tokenize"
	"repro/internal/xmltree"
)

// Engine evaluates parsed queries against an index snapshot and the store
// it indexes. Compile turns each query into a Plan of the physical access
// methods of internal/exec — PhraseFinder turns multi-word phrases into
// pseudo-term posting lists, TermJoin generates scores in one stack-based
// merge pass, PickArena eliminates redundant granularities and TopK answers
// stop after — and Eval runs that plan.
type Engine struct {
	Index *index.Index
	// Stats, when non-nil, accumulates the store traffic of every Eval:
	// navigation, TermJoin and materialization share one accessor.
	Stats *storage.AccessStats
	// Guard, when non-nil, is the cancellation and resource budget of
	// every Eval: checked during navigation, passed to every access
	// method, and charged with every store access.
	Guard *exec.Guard
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

// Eval compiles a parsed query against the engine's index and runs the
// plan.
func (e *Engine) Eval(q *Query) ([]Result, error) {
	if err := e.Guard.Check(); err != nil {
		return nil, err
	}
	p, err := Compile(q, e.Index)
	if err != nil {
		return nil, err
	}
	return e.run(p)
}

// run executes the plan's steps in order, recording the rows each
// produced. Path steps narrow their binding's node set, PhraseFinder
// steps fill TermJoin's phrase inputs (Compile already scoped a single
// term's postings, so its step only reports them), and the rest produce
// and rank the results.
func (e *Engine) run(p *Plan) ([]Result, error) {
	acc := e.Guard.Attach(storage.NewAccessor(p.idx.Store()))
	if e.Stats != nil {
		defer func() { e.Stats.Add(acc.Stats) }()
	}
	var (
		nodes   [2][]int32 // per For binding: the current node set
		scored  []exec.ScoredNode
		results []Result
		pairs   []joinPair
		err     error
	)
	for i := range p.steps {
		s := &p.steps[i]
		doc, cur := p.docs[s.side], &nodes[s.side]
		switch s.op {
		case opDocument:
			*cur = []int32{0} // the root element
		case opExtentScan:
			*cur = tagExtent(acc.Store(), doc, s.name)
		case opDescendant:
			*cur, err = e.descendants(acc, doc, *cur, s.name)
		case opChild:
			*cur, err = e.children(acc, doc, *cur, s.name)
		case opFilter:
			*cur, err = e.filter(acc, doc, *cur, s.pred)
		case opPhrase:
			pf := &exec.PhraseFinder{Index: p.idx, Phrase: s.terms, Guard: e.Guard}
			var ms []exec.PhraseMatch
			ms, err = exec.CollectPhrase(pf.Run)
			p.lists[s.term] = exec.PhrasePostings(ms).Range(doc.ID, doc.ID+1) // the bound document's postings only
		case opTermJoin:
			scored, err = e.termJoin(acc, p)
		case opExpand:
			results = expand(doc, nodes[0], scored, p.q.Score != nil)
		case opPick:
			results, err = e.pick(doc, nodes[0], scored, s.v)
		case opSubtreeScan:
			results, err = e.scoreSubtrees(acc, p, nodes[0])
		case opNullScore:
			results = make([]Result, len(nodes[0]))
			for j, ord := range nodes[0] {
				results[j] = Result{Doc: doc.ID, Ord: ord}
			}
		case opJoin:
			pairs, err = e.join(acc, p, nodes, results, s.v)
		case opScoreBar:
			results = nil
			for _, pr := range pairs {
				for _, c := range pr.comps {
					results = append(results, Result{Doc: doc.ID, Ord: c.Ord, Score: scoring.ScoreBar(pr.sim, c.Score), Sim: pr.sim, Right: pr.right})
				}
			}
		case opThreshold:
			results = slices.DeleteFunc(results, func(r Result) bool { return r.Score <= s.v })
		case opTopK:
			results = stopAfter(results, s.k)
		case opSort:
			slices.SortStableFunc(results, func(a, b Result) int { return cmp.Compare(b.Score, a.Score) })
		case opMaterialize:
			for j := range results {
				if err = e.Guard.Tick(); err != nil {
					break
				}
				results[j].Node = acc.Materialize(results[j].Doc, results[j].Ord)
			}
		}
		if err != nil {
			return nil, err
		}
		switch {
		case s.op <= opFilter:
			s.rows = len(*cur)
		case s.op <= opPostings:
			s.rows = p.lists[s.term].Len()
		case s.op == opTermJoin:
			s.rows = len(scored)
		case s.op == opJoin:
			s.rows = len(pairs)
		default:
			s.rows = len(results)
		}
	}
	return results, nil
}

// descendants returns the elements with the given tag (or any element for
// "*") that are proper descendants of any node in from, in document order:
// a structural join of from as ancestors with the tag extent.
func (e *Engine) descendants(acc *storage.Accessor, doc *storage.Document, from []int32, name string) ([]int32, error) {
	pairs, err := exec.AncDescPairsGuarded(acc, doc.ID, from, tagExtent(acc.Store(), doc, name), e.Guard)
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

// tagExtent returns the document's elements with the given tag (every
// element for "*"), in document order. The slice is the document's own and
// must not be modified.
func tagExtent(s *storage.Store, doc *storage.Document, name string) []int32 {
	if name == "*" {
		return doc.Elements()
	}
	tid, ok := s.Tags.Lookup(name)
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
			if rec.Kind == xmltree.Element && (name == "*" || acc.Store().Tags.Name(rec.Tag) == name) {
				out = append(out, c)
			}
			c = rec.NextSibling
		}
	}
	slices.Sort(out)
	return out, nil
}

// filter returns the nodes of from for which the predicate holds, in a new
// slice: from may be the document's own tag extent.
func (e *Engine) filter(acc *storage.Accessor, doc *storage.Document, from []int32, p *Predicate) ([]int32, error) {
	var kept []int32
	for _, ord := range from {
		if err := e.Guard.Tick(); err != nil {
			return nil, err
		}
		ok, err := e.predicateHolds(acc, doc, ord, p)
		if err != nil {
			return nil, err
		}
		if ok {
			kept = append(kept, ord)
		}
	}
	return kept, nil
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

// termJoin scores every element of the bound document containing a
// pseudo-term, in document order.
func (e *Engine) termJoin(acc *storage.Accessor, p *Plan) ([]exec.ScoredNode, error) {
	tj := &exec.TermJoin{
		Index: p.idx,
		Acc:   acc,
		Query: exec.TermQuery{
			Terms:  p.names,
			Lists:  p.lists,
			Scorer: exec.DefaultScorer{SimpleFn: scoring.SimpleScorer{Weights: p.weights}},
		},
		Guard: e.Guard,
	}
	scored, err := exec.Collect(tj.Run)
	if err != nil {
		return nil, err
	}
	slices.SortFunc(scored, func(a, b exec.ScoredNode) int { return cmp.Compare(a.Ord, b.Ord) })
	return scored, nil
}

// window returns the scored elements (document order) in anchor's subtree.
func window(doc *storage.Document, scored []exec.ScoredNode, anchor int32) []exec.ScoredNode {
	end := doc.SubtreeEnd(anchor)
	lo := sort.Search(len(scored), func(i int) bool { return scored[i].Ord >= anchor })
	hi := sort.Search(len(scored), func(i int) bool { return scored[i].Ord >= end })
	return scored[lo:hi]
}

// expand returns descendant-or-self::* of each anchor as results: the
// scored elements of its subtree when the query scores, else every element
// with a null score.
func expand(doc *storage.Document, anchors []int32, scored []exec.ScoredNode, scoring bool) []Result {
	var out []Result
	for _, a := range anchors {
		if scoring {
			for _, n := range window(doc, scored, a) {
				out = append(out, Result{Doc: doc.ID, Ord: n.Ord, Score: n.Score})
			}
			continue
		}
		for i, end := a, doc.SubtreeEnd(a); i < end; i++ {
			if doc.Nodes[i].Kind == xmltree.Element {
				out = append(out, Result{Doc: doc.ID, Ord: i})
			}
		}
	}
	return out
}

// pick runs Pick over each anchor's scored elements; one arena, stream
// buffer and decision logic serve every anchor.
func (e *Engine) pick(doc *storage.Document, anchors []int32, scored []exec.ScoredNode, threshold float64) ([]Result, error) {
	var results []Result
	var arena exec.PickArena
	var stream []exec.PickNode
	funcs := exec.DefaultPickFuncs(threshold)
	for _, anchor := range anchors {
		stream = stream[:0]
		for _, n := range window(doc, scored, anchor) {
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

// scoreSubtrees scores each anchor on its whole subtree text (no
// granularity expansion).
func (e *Engine) scoreSubtrees(acc *storage.Accessor, p *Plan, anchors []int32) ([]Result, error) {
	var results []Result
	doc, tok := p.docs[0], p.idx.Tokenizer()
	for _, ord := range anchors {
		if err := e.Guard.Tick(); err != nil {
			return nil, err
		}
		text := acc.SubtreeText(doc.ID, ord)
		score := 0.0
		for i, ph := range p.names {
			score += p.weights[i] * float64(countPhraseIn(tok, text, ph))
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
