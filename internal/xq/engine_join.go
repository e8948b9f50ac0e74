package xq

import (
	"fmt"
	"math"

	"repro/internal/storage"
	"repro/internal/xmltree"
)

// compileJoin compiles the Query 3 shape (Fig. 10): two document-bound For
// clauses joined by a similarity-scored Let condition, an optional Where
// threshold on the join score, a third For binding result components
// within the left side, ScoreFoo/Pick over the components, and a ScoreBar
// combination of the join score with the component score.
//
// The required clause pattern is
//
//	For $a in document("L")…          (left side, structural predicates ok)
//	For $b in document("R")…          (right side)
//	Let $sim := ScoreSim($a/key, $b/key)
//	Where $sim > V                    (optional)
//	For $d in $a/descendant-or-self::*
//	Score $d using ScoreFoo($d, {…}, {…})
//	Pick $d using PickFoo($d)         (optional)
//	Score $r using ScoreBar($sim, $d)
//	Sortby(score) / Threshold $r/@score … (optional)
func (p *Plan) compileJoin() error {
	q := p.q
	if len(q.Fors) != 3 {
		return fmt.Errorf("xq: join queries need exactly three For clauses (left, right, component), got %d", len(q.Fors))
	}
	left, right, comp := q.Fors[0], q.Fors[1], q.Fors[2]
	if left.Path.Document == "" || right.Path.Document == "" {
		return fmt.Errorf("xq: the first two For clauses of a join must bind documents")
	}
	if comp.Path.BaseVar != left.Var {
		return fmt.Errorf("xq: the component For must be relative to $%s, got %q", left.Var, comp.Path.BaseVar)
	}
	if q.Let == nil {
		return fmt.Errorf("xq: join queries need a Let $sim := ScoreSim(...) clause")
	}
	if q.Let.LeftVar != left.Var || q.Let.RightVar != right.Var {
		return fmt.Errorf("xq: ScoreSim must reference $%s and $%s", left.Var, right.Var)
	}
	if q.Where != nil && q.Where.Var != q.Let.Var {
		return fmt.Errorf("xq: Where must reference the Let variable $%s", q.Let.Var)
	}
	if q.Score == nil {
		return fmt.Errorf("xq: join queries need a Score … using ScoreFoo clause on $%s", comp.Var)
	}
	if q.Score.Var != comp.Var {
		return fmt.Errorf("xq: ScoreFoo must score the component variable $%s", comp.Var)
	}
	if q.Combine == nil {
		return fmt.Errorf("xq: join queries need a Score … using ScoreBar($%s, $%s) clause", q.Let.Var, comp.Var)
	}
	if q.Combine.SimVar != q.Let.Var || q.Combine.CompVar != comp.Var {
		return fmt.Errorf("xq: ScoreBar must combine $%s with $%s", q.Let.Var, comp.Var)
	}
	for side, f := range q.Fors[:2] {
		expand, err := p.compilePath(side, f.Path)
		if err != nil {
			return err
		}
		if expand {
			return fmt.Errorf("xq: the %s For of a join must bind elements, not descendant-or-self::*", [...]string{"left", "right"}[side])
		}
	}
	// Component binding: $a/descendant-or-self::* (further steps are not
	// supported in the join shape).
	if len(comp.Path.Steps) != 1 || comp.Path.Steps[0].Kind != StepDescendantOrSelf {
		return fmt.Errorf("xq: the component For must be $%s/descendant-or-self::*", left.Var)
	}
	if err := p.compileScore(); err != nil {
		return err
	}
	if q.Threshold != nil && q.Threshold.Var != q.Combine.Var && q.Threshold.Var != comp.Var {
		return fmt.Errorf("xq: Threshold must reference $%s or $%s", q.Combine.Var, comp.Var)
	}
	where := math.Inf(-1) // without Where, every pair joins
	if q.Where != nil {
		where = q.Where.Min
	}
	p.add(step{op: opJoin, v: where})
	p.add(step{op: opScoreBar})
	return nil
}

// joinPair is one left anchor joined with one right anchor: the left
// anchor's scored components, their similarity and the right element.
type joinPair struct {
	comps []Result
	sim   float64
	right *xmltree.Node
}

// join pairs every left anchor that has scored components with each right
// anchor whose key children share words with its own — the best key pair
// when several exist — keeping the pairs whose similarity beats where.
func (e *Engine) join(acc *storage.Accessor, p *Plan, anchors [2][]int32, comps []Result, where float64) ([]joinPair, error) {
	let, leftDoc, rightDoc := p.q.Let, p.docs[0], p.docs[1]
	// Group the components by their containing anchor: the first whose
	// region holds them, anchors being in document order.
	groups, ends := make([][]Result, len(anchors[0])), make([]int32, len(anchors[0]))
	for i, a := range anchors[0] {
		ends[i] = leftDoc.SubtreeEnd(a)
	}
	for _, c := range comps {
		for i, a := range anchors[0] {
			if c.Ord >= a && c.Ord < ends[i] {
				groups[i] = append(groups[i], c)
				break
			}
		}
	}
	tok := p.idx.Tokenizer()
	var pairs []joinPair
	for i, a := range anchors[0] {
		if len(groups[i]) == 0 {
			continue
		}
		leftKeys, err := e.children(acc, leftDoc, []int32{a}, let.LeftKey)
		if err != nil {
			return nil, err
		}
		if len(leftKeys) == 0 {
			continue
		}
		for _, b := range anchors[1] {
			if err := e.Guard.Tick(); err != nil {
				return nil, err
			}
			rightKeys, err := e.children(acc, rightDoc, []int32{b}, let.RightKey)
			if err != nil {
				return nil, err
			}
			if len(rightKeys) == 0 {
				continue
			}
			sim := 0.0
			for _, lk := range leftKeys {
				lt := directTextOf(acc, leftDoc, lk)
				for _, rk := range rightKeys {
					rt := directTextOf(acc, rightDoc, rk)
					if s := simOf(tok, lt, rt); s > sim {
						sim = s
					}
				}
			}
			if !(sim > where) {
				continue
			}
			pairs = append(pairs, joinPair{comps: groups[i], sim: sim, right: acc.Materialize(rightDoc.ID, b)})
		}
	}
	return pairs, nil
}

// simOf counts the distinct shared words of two key texts — ScoreSim of
// Fig. 9 over raw strings.
func simOf(tok interface{ Terms(string) []string }, a, b string) float64 {
	set := map[string]bool{}
	for _, t := range tok.Terms(a) {
		set[t] = true
	}
	seen := map[string]bool{}
	n := 0
	for _, t := range tok.Terms(b) {
		if set[t] && !seen[t] {
			seen[t] = true
			n++
		}
	}
	return float64(n)
}
