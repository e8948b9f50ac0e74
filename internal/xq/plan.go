package xq

import (
	"errors"
	"fmt"
	"strings"

	"repro/internal/index"
	"repro/internal/storage"
)

// DefaultPickThreshold is PickFoo's relevance threshold when the Pick
// clause names none (Fig. 12).
const DefaultPickThreshold = 0.8

// op is the physical operator a plan step runs. Engine.run relies on the
// grouping: path operators, then pseudo-term inputs, then the rest.
type op int

const (
	opDocument    op = iota // the bound document's root element
	opExtentScan            // //tag off the document node: the tag extent
	opDescendant            // //tag below the current nodes: a structural join
	opChild                 // /tag
	opFilter                // [predicate], checked by navigation
	opPhrase                // PhraseFinder: one phrase's pseudo-term postings
	opPostings              // one term's postings
	opTermJoin              // TermJoin over the pseudo-terms
	opExpand                // descendant-or-self::* of each anchor
	opPick                  // PickArena over each anchor's scored elements
	opSubtreeScan           // each anchor scored on its own subtree text
	opNullScore             // each anchor a result with a null score
	opJoin                  // ScoreSim join of the left and right anchors
	opScoreBar              // ScoreBar of each joined pair's components
	opThreshold             // Threshold V: keep score > V
	opTopK                  // stop after K
	opSort                  // Sortby(score): stable, descending
	opMaterialize           // each result's subtree
)

// step is one operator of a plan with its parameters and its actuals.
type step struct {
	op    op
	side  int        // the For binding it reads: 0 (single or left), 1 (right)
	name  string     // document, tag or phrase
	pred  *Predicate // opFilter
	terms []string   // opPhrase: the phrase's words
	term  int        // opPhrase, opPostings: the pseudo-term it fills
	v     float64    // opPick's relevance threshold, opJoin's Where and opThreshold's V
	k     int        // opTopK's K
	rows  int        // rows produced by the last run; -1 before it runs
}

// Plan is a compiled query: the physical steps Engine.Eval runs in order
// and String prints. names, weights and lists are TermJoin's pseudo-terms,
// each list scoped to the bound document.
type Plan struct {
	q       *Query
	idx     *index.Index
	docs    [2]*storage.Document
	names   []string
	weights []float64
	lists   []index.List
	steps   []step
}

// Compile validates q against the index snapshot idx and translates it
// into a plan: it checks the query's shape and variables, resolves the
// bound documents and builds the TermJoin pseudo-terms. It runs no
// operator, so explaining a query costs no store access.
func Compile(q *Query, idx *index.Index) (*Plan, error) {
	if len(q.Fors) == 0 {
		return nil, fmt.Errorf("xq: query has no For clause")
	}
	p := &Plan{q: q, idx: idx, steps: make([]step, 0, 16)}
	compile := p.compileSingle
	if len(q.Fors) > 1 {
		compile = p.compileJoin
	}
	if err := compile(); err != nil {
		return nil, err
	}
	if th := q.Threshold; th != nil && th.HasMin {
		p.add(step{op: opThreshold, v: th.MinScore})
	}
	if th := q.Threshold; th != nil && th.HasStopK {
		p.add(step{op: opTopK, k: th.StopK})
	} else if q.SortBy {
		p.add(step{op: opSort})
	}
	p.add(step{op: opMaterialize})
	return p, nil
}

func (p *Plan) add(s step) {
	s.rows = -1
	p.steps = append(p.steps, s)
}

// compileSingle compiles the Query 1/2 shape.
func (p *Plan) compileSingle() error {
	q, f := p.q, p.q.Fors[0]
	if q.Let != nil || q.Where != nil || q.Combine != nil {
		return fmt.Errorf("xq: Let/Where/ScoreBar clauses require the multi-For join shape")
	}
	expand, err := p.compilePath(0, f.Path)
	if err != nil {
		return err
	}
	// Score, Pick and Threshold must reference the For variable.
	var clause, got string
	switch {
	case q.Score != nil && q.Score.Var != f.Var:
		clause, got = "Score", q.Score.Var
	case q.Pick != nil && q.Pick.Var != f.Var:
		clause, got = "Pick", q.Pick.Var
	case q.Threshold != nil && q.Threshold.Var != f.Var:
		clause, got = "Threshold", q.Threshold.Var
	}
	if clause != "" {
		return fmt.Errorf("xq: %s clause references $%s, but the For clause binds $%s", clause, got, f.Var)
	}
	switch {
	case q.Score != nil && expand:
		return p.compileScore()
	case q.Score != nil:
		p.compileTerms()
		p.add(step{op: opSubtreeScan})
	case expand:
		p.add(step{op: opExpand})
	default:
		p.add(step{op: opNullScore})
	}
	return nil
}

// ErrStaleSnapshot reports a document name that the store binds to a
// document the index snapshot does not hold: it changed after the snapshot
// was taken. The caller takes a fresh snapshot and compiles again.
var ErrStaleSnapshot = errors.New("xq: document changed after the index snapshot was taken")

// compilePath resolves a For binding's document, adds the structural
// steps of its path, and reports whether a final descendant-or-self::*
// expands each anchor to the elements of its subtree.
func (p *Plan) compilePath(side int, path PathExpr) (expand bool, err error) {
	doc := p.idx.Store().DocByName(path.Document)
	switch {
	case doc == nil:
		return false, fmt.Errorf("xq: document %q not loaded", path.Document)
	case !p.idx.Visible(doc.ID):
		return false, fmt.Errorf("%w: %q", ErrStaleSnapshot, path.Document)
	}
	p.docs[side] = doc
	p.add(step{op: opDocument, side: side, name: path.Document})
	steps := path.Steps
	for i, s := range steps {
		switch s.Kind {
		case StepDescendantOrSelf:
			if i != len(steps)-1 {
				return false, fmt.Errorf("xq: descendant-or-self::* is only supported as the final step")
			}
			return true, nil
		case StepDescendant:
			o := opDescendant
			if i == 0 {
				// The // axis hangs off the document node, so the whole
				// extent (root element included) qualifies.
				o = opExtentScan
			}
			p.add(step{op: o, side: side, name: s.Name})
		case StepChild:
			p.add(step{op: opChild, side: side, name: s.Name})
		case StepPredicate:
			p.add(step{op: opFilter, side: side, pred: s.Pred})
		}
	}
	return false, nil
}

// compileScore adds the IR steps over the (left) anchors' subtrees: the
// pseudo-term inputs, each scoped to the bound document (a single term's
// postings now, a phrase's by the PhraseFinder step added for it),
// TermJoin, then Pick or the plain expansion.
func (p *Plan) compileScore() error {
	p.compileTerms()
	if len(p.names) == 0 {
		return fmt.Errorf("xq: ScoreFoo names no phrase for TermJoin to score")
	}
	doc, tok := p.docs[0], p.idx.Tokenizer()
	p.lists = make([]index.List, len(p.names))
	for i, ph := range p.names {
		terms := tok.SplitPhrase(ph)
		switch len(terms) {
		case 0:
			return fmt.Errorf("xq: empty phrase in Score clause")
		case 1:
			p.add(step{op: opPostings, name: ph, term: i})
			p.lists[i] = p.idx.List(tok.Normalize(terms[0])).Range(doc.ID, doc.ID+1)
		default:
			p.add(step{op: opPhrase, name: ph, terms: terms, term: i})
		}
	}
	p.add(step{op: opTermJoin})
	if p.q.Pick == nil {
		p.add(step{op: opExpand})
		return nil
	}
	th := DefaultPickThreshold
	if p.q.Pick.HasThresh {
		th = p.q.Pick.Threshold
	}
	p.add(step{op: opPick, v: th})
	return nil
}

// compileTerms lays out ScoreFoo's weighted pseudo-terms, primary phrases
// first.
func (p *Plan) compileTerms() {
	sc := p.q.Score
	n := len(sc.Primary) + len(sc.Secondary)
	p.names = append(append(make([]string, 0, n), sc.Primary...), sc.Secondary...)
	p.weights = make([]float64, n)
	for i := range p.weights {
		p.weights[i] = sc.SecondaryWeight
		if i < len(sc.Primary) {
			p.weights[i] = sc.PrimaryWeight
		}
	}
}

// String prints the plan one step a line; once the plan has run, each
// line ends with the rows its step produced.
func (p *Plan) String() string {
	var sb strings.Builder
	for _, s := range p.steps {
		sb.WriteString("  ")
		switch s.op {
		case opDocument:
			fmt.Fprintf(&sb, "document(%q)", s.name)
		case opExtentScan:
			fmt.Fprintf(&sb, "extent scan //%s: %d elements", s.name, len(tagExtent(p.idx.Store(), p.docs[s.side], s.name)))
		case opDescendant:
			fmt.Fprintf(&sb, "structural join //%s", s.name)
		case opChild:
			fmt.Fprintf(&sb, "child step /%s", s.name)
		case opFilter:
			fmt.Fprintf(&sb, "filter %s", s.pred)
		case opPhrase:
			fmt.Fprintf(&sb, "PhraseFinder %q, weight %g", s.name, p.weights[s.term])
		case opPostings:
			fmt.Fprintf(&sb, "postings %q, weight %g: %d in the bound document", s.name, p.weights[s.term], p.lists[s.term].Len())
		case opTermJoin:
			fmt.Fprintf(&sb, "TermJoin over %d pseudo-terms, Range-scoped to the bound document", len(p.lists))
		case opPick:
			fmt.Fprintf(&sb, "PickArena over each anchor's descendant-or-self::*, relevance threshold %g", s.v)
		case opJoin:
			l := p.q.Let
			fmt.Fprintf(&sb, "join on ScoreSim($%s/%s, $%s/%s) > %g", l.LeftVar, l.LeftKey, l.RightVar, l.RightKey, s.v)
		case opThreshold:
			fmt.Fprintf(&sb, "threshold score > %g", s.v)
		case opTopK:
			fmt.Fprintf(&sb, "TopK: stop after %d", s.k)
		default:
			sb.WriteString(opText[s.op])
		}
		if s.rows >= 0 {
			fmt.Fprintf(&sb, " → %d rows", s.rows)
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// opText is the line of each operator that prints no parameter.
var opText = [...]string{
	opExpand:      "expand descendant-or-self::* of each anchor",
	opSubtreeScan: "ScoreFoo over each anchor's subtree text",
	opNullScore:   "null scores",
	opScoreBar:    "ScoreBar($sim, component score)",
	opSort:        "stable sort by score, descending",
	opMaterialize: "materialize result subtrees",
}
