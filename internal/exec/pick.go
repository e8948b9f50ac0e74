package exec

import (
	"cmp"
	"slices"
)

// PickNode is one node of the scored tree streamed into the stack-based
// Pick access method, in document order. HasScore distinguishes IR-nodes
// (which participate in the pick decision) from plain structural content
// (which is transparent).
type PickNode struct {
	Ord      int32
	Start    uint32
	End      uint32
	Level    uint16
	Score    float64
	HasScore bool
}

// PickFuncs is the plug-in decision logic of the Pick algorithm (Fig. 12):
// DetWorth decides whether a node is worth returning given its direct
// children, and IsSameClass decides whether two nodes belong to the same
// return class (vertical redundancy elimination drops a surviving
// candidate when an unworthy ancestor shares its class). Relevant is the
// relevance-score threshold candidates must pass.
type PickFuncs struct {
	Relevant  func(score float64) bool
	DetWorth  func(n PickNode, children []PickNode) bool
	SameClass func(a, b PickNode) bool
}

// DefaultPickFuncs mirrors algebra.DefaultCriterion: relevance means score
// ≥ threshold; an interior node is worth returning when more than half of
// its scored children are relevant (a node with no scored children falls
// back to its own relevance); two nodes share a class when their levels
// have equal parity (the Sec. 5.3 example).
func DefaultPickFuncs(threshold float64) PickFuncs {
	return PickFuncs{
		Relevant: func(s float64) bool { return s >= threshold },
		DetWorth: func(n PickNode, children []PickNode) bool {
			relevant, total := 0, 0
			for _, c := range children {
				if !c.HasScore {
					continue
				}
				total++
				if c.Score >= threshold {
					relevant++
				}
			}
			if total == 0 {
				return n.HasScore && n.Score >= threshold
			}
			return float64(relevant)/float64(total) > 0.5
		},
		SameClass: func(a, b PickNode) bool { return a.Level%2 == b.Level%2 },
	}
}

// StackPick is the stack-based evaluation of the Pick operator (Fig. 12)
// over a fresh arena; see PickArena.Pick.
func StackPick(nodes []PickNode, f PickFuncs) []PickNode {
	out, _ := new(PickArena).Pick(nodes, f, nil)
	return out
}

// PickArena holds the run state of the stack-based Pick for reuse across
// runs: the stack of open elements, and two shared stacks the open frames
// index into — the direct children and the surviving candidates of each
// open element. A frame's entries sit above its parent's, so closing a
// frame truncates both stacks to where it started, and survivors it passes
// up stay in place as the parent's. The zero value is ready; an arena
// serves one run at a time.
type PickArena struct {
	frames    []pickFrame
	children  []PickNode
	survivors []PickNode
	out       []PickNode
}

// pickFrame is one open element and where its direct children and
// survivors start on the arena's shared stacks.
type pickFrame struct {
	node       PickNode
	kids, surv int
}

// Pick makes a single pass over the scored tree's nodes in document order,
// maintaining a stack of open elements. When a node closes, DetWorth is
// evaluated with its direct children: a worthy node keeps its surviving
// candidates (and joins them if relevant); an unworthy node finalizes its
// survivors — those in a different return class are output, those in the
// same class are eliminated as redundant. Survivors remaining when a root
// closes are output.
//
// The pass is blocking only in the sense the paper describes: output for a
// subtree is produced as soon as an ancestor is determined not worth
// returning (or at end of input); no global materialization beyond the
// open-ancestor stack and its survivor lists is needed. The guard is
// checked once per streamed node.
//
// The input must be in document order; the returned picked nodes are in
// document order and valid until the arena's next run.
func (a *PickArena) Pick(nodes []PickNode, f PickFuncs, g *Guard) ([]PickNode, error) {
	a.frames, a.children, a.survivors, a.out = a.frames[:0], a.children[:0], a.survivors[:0], a.out[:0]
	for _, n := range nodes {
		if err := g.Tick(); err != nil {
			return nil, err
		}
		for len(a.frames) > 0 && a.frames[len(a.frames)-1].node.End < n.Start {
			a.close(f)
		}
		a.frames = append(a.frames, pickFrame{node: n, kids: len(a.children), surv: len(a.survivors)})
	}
	for len(a.frames) > 0 {
		a.close(f)
	}
	slices.SortFunc(a.out, func(x, y PickNode) int { return cmp.Compare(x.Start, y.Start) })
	return a.out, nil
}

// close pops the top frame and decides its element.
func (a *PickArena) close(f PickFuncs) {
	e := a.frames[len(a.frames)-1]
	a.frames = a.frames[:len(a.frames)-1]
	worthy := !e.node.HasScore || f.DetWorth(e.node, a.children[e.kids:])
	// e becomes its parent's child (a root's entry is never read).
	a.children = append(a.children[:e.kids], e.node)
	if !worthy {
		for _, x := range a.survivors[e.surv:] {
			if !f.SameClass(x, e.node) {
				a.out = append(a.out, x)
			}
		}
		a.survivors = a.survivors[:e.surv]
		return
	}
	if e.node.HasScore && f.Relevant(e.node.Score) {
		a.survivors = append(a.survivors, e.node)
	}
	if len(a.frames) > 0 {
		return // the survivors stay in place as the parent's
	}
	// A root closed (Fig. 12's ending): the remaining survivors are all
	// potentially worth returning; output the top node and the nodes in
	// its class, preserving parent/child exclusion.
	if surv := a.survivors[e.surv:]; len(surv) > 0 {
		rep := surv[len(surv)-1]
		a.out = append(a.out, rep)
		for _, x := range surv[:len(surv)-1] {
			if f.SameClass(x, rep) {
				a.out = append(a.out, x)
			}
		}
	}
	a.survivors = a.survivors[:e.surv]
}
