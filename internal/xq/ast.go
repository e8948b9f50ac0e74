package xq

import (
	"fmt"
	"strings"
)

// Query is the parsed form of an extended-XQuery query (Fig. 10 shapes).
// Single-For queries are the Query 1/2 shape; queries with multiple For
// clauses plus Let/Where/ScoreBar express the Query 3 similarity-join
// shape.
type Query struct {
	Fors      []ForClause
	Let       *LetClause
	Where     *WhereClause
	Score     *ScoreClause
	Pick      *PickClause
	Combine   *CombineClause
	Return    *ReturnClause
	SortBy    bool // Sortby(score)
	Threshold *ThresholdClause
}

// ForClause binds a variable to the node set of a path expression.
type ForClause struct {
	Var  string
	Path PathExpr
}

// PathExpr is document("name") — or, for a relative binding like
// "$a/descendant-or-self::*", a previously bound variable — followed by
// steps. Exactly one of Document and BaseVar is set.
type PathExpr struct {
	Document string
	BaseVar  string
	Steps    []Step
}

// LetClause is `Let $v := ScoreSim($a/key, $b/key)`: the similarity-scored
// join condition of Query 3 (Fig. 4's $joinScore).
type LetClause struct {
	Var               string
	LeftVar, RightVar string
	LeftKey, RightKey string
}

// WhereClause is `Where $v > N` — the "Threshold simScore > 1" step of the
// paper's Query 3, applied to the join score.
type WhereClause struct {
	Var string
	Min float64
}

// CombineClause is `Score $r using ScoreBar($sim, $d)`: the final score
// combining the join score with a component's relevance (Fig. 9's
// ScoreBar).
type CombineClause struct {
	Var     string
	SimVar  string
	CompVar string
}

// StepKind enumerates the supported path steps.
type StepKind int

const (
	// StepChild is /name.
	StepChild StepKind = iota
	// StepDescendant is //name.
	StepDescendant
	// StepDescendantOrSelf is /descendant-or-self::* — the ad* axis that
	// selects candidate result granularities.
	StepDescendantOrSelf
	// StepPredicate is a [relpath = "value"] filter on the current nodes.
	StepPredicate
)

// Step is one path step.
type Step struct {
	Kind StepKind
	Name string // element name for StepChild/StepDescendant ("*" = any)
	Pred *Predicate
}

// Predicate is the [relpath = "value"] filter. When Attr is non-empty the
// relpath was @attr; otherwise Names is the element path, optionally
// terminated by text(). Value is the comparison literal; an empty Value
// with Exists set tests existence only.
type Predicate struct {
	Attr   string
	Names  []string
	Text   bool // path ends in text()
	Value  string
	Exists bool
}

// ScoreClause is "Score $v using ScoreFoo($v, {primary…}, {secondary…})".
// Each phrase set may carry a declarative weight ("{…} weight 0.9"),
// realizing the Sec. 2 motivation that weighting heuristics should be
// specifiable in the query rather than hard-wired; the defaults are
// ScoreFoo's 0.8 and 0.6 (Fig. 9).
type ScoreClause struct {
	Var             string
	ArgVar          string
	Primary         []string
	Secondary       []string
	PrimaryWeight   float64
	SecondaryWeight float64
}

// PickClause is "Pick $v using PickFoo($v [, threshold])"; the optional
// threshold overrides DefaultPickThreshold, the paper's PickFoo cutoff.
type PickClause struct {
	Var       string
	ArgVar    string
	Threshold float64
	HasThresh bool
}

// ReturnClause stores the raw result template (the engine renders results
// in the canonical <result><score>…</score>{…}</result> shape regardless;
// the template is retained for round-tripping and diagnostics).
type ReturnClause struct {
	Raw string
}

// ThresholdClause is "Threshold $v/@score > V [stop after K]".
type ThresholdClause struct {
	Var      string
	MinScore float64
	HasMin   bool
	StopK    int
	HasStopK bool
}

// String renders the query back in the dialect's surface syntax.
func (q *Query) String() string {
	var sb strings.Builder
	for _, f := range q.Fors {
		fmt.Fprintf(&sb, "For $%s in %s\n", f.Var, f.Path)
	}
	if q.Let != nil {
		fmt.Fprintf(&sb, "Let $%s := ScoreSim($%s/%s, $%s/%s)\n",
			q.Let.Var, q.Let.LeftVar, q.Let.LeftKey, q.Let.RightVar, q.Let.RightKey)
	}
	if q.Where != nil {
		fmt.Fprintf(&sb, "Where $%s > %g\n", q.Where.Var, q.Where.Min)
	}
	if q.Score != nil {
		fmt.Fprintf(&sb, "Score $%s using ScoreFoo($%s, %s%s, %s%s)\n",
			q.Score.Var, q.Score.ArgVar,
			phraseSet(q.Score.Primary), weightSuffix(q.Score.PrimaryWeight, 0.8),
			phraseSet(q.Score.Secondary), weightSuffix(q.Score.SecondaryWeight, 0.6))
	}
	if q.Pick != nil {
		if q.Pick.HasThresh {
			fmt.Fprintf(&sb, "Pick $%s using PickFoo($%s, %g)\n", q.Pick.Var, q.Pick.ArgVar, q.Pick.Threshold)
		} else {
			fmt.Fprintf(&sb, "Pick $%s using PickFoo($%s)\n", q.Pick.Var, q.Pick.ArgVar)
		}
	}
	if q.Combine != nil {
		fmt.Fprintf(&sb, "Score $%s using ScoreBar($%s, $%s)\n",
			q.Combine.Var, q.Combine.SimVar, q.Combine.CompVar)
	}
	if q.Return != nil {
		fmt.Fprintf(&sb, "Return %s\n", strings.TrimSpace(q.Return.Raw))
	}
	if q.SortBy {
		sb.WriteString("Sortby(score)\n")
	}
	if q.Threshold != nil {
		fmt.Fprintf(&sb, "Threshold $%s/@score", q.Threshold.Var)
		if q.Threshold.HasMin {
			fmt.Fprintf(&sb, " > %g", q.Threshold.MinScore)
		}
		if q.Threshold.HasStopK {
			fmt.Fprintf(&sb, " stop after %d", q.Threshold.StopK)
		}
		sb.WriteString("\n")
	}
	return sb.String()
}

func weightSuffix(w, def float64) string {
	if w == def {
		return ""
	}
	return fmt.Sprintf(" weight %g", w)
}

func phraseSet(ps []string) string {
	quoted := make([]string, len(ps))
	for i, p := range ps {
		quoted[i] = fmt.Sprintf("%q", p)
	}
	return "{" + strings.Join(quoted, ", ") + "}"
}

// String renders the path expression.
func (p PathExpr) String() string {
	var sb strings.Builder
	if p.BaseVar != "" {
		fmt.Fprintf(&sb, "$%s", p.BaseVar)
	} else {
		fmt.Fprintf(&sb, "document(%q)", p.Document)
	}
	for _, s := range p.Steps {
		sb.WriteString(s.String())
	}
	return sb.String()
}

// String renders one step.
func (s Step) String() string {
	switch s.Kind {
	case StepChild:
		return "/" + s.Name
	case StepDescendant:
		return "//" + s.Name
	case StepDescendantOrSelf:
		return "/descendant-or-self::*"
	case StepPredicate:
		return s.Pred.String()
	default:
		return "?"
	}
}

// String renders the predicate.
func (p *Predicate) String() string {
	var inner string
	if p.Attr != "" {
		inner = "@" + p.Attr
	} else {
		inner = "/" + strings.Join(p.Names, "/")
		if p.Text {
			inner += "/text()"
		}
	}
	if !p.Exists {
		inner += fmt.Sprintf("=%q", p.Value)
	}
	return "[" + inner + "]"
}
