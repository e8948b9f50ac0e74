package exec

import (
	"fmt"
	"math"

	"repro/internal/storage"
)

// This file implements the holistic twig join TwigStack (Bruno, Koudas,
// Srivastava: "Holistic Twig Joins: Optimal XML Pattern Matching", SIGMOD
// 2002) — reference [6] of the paper and part of the stack-based family of
// structural join access methods TermJoin generalizes. The paper's query
// engine evaluates the structural part of scored pattern trees with such
// joins; internal/xq uses binary AncDescPairsGuarded for its simple paths, and
// TwigStack is provided for whole-twig matching of tag patterns.
//
// The core algorithm covers twigs whose edges are all ancestor-descendant
// (TwigStack's optimality domain); parent-child edges are verified by
// post-filtering the merged solutions, as the original paper discusses.

// TwigNode is one node of a twig pattern: an element tag with edges to its
// children. Edges are ancestor-descendant unless PC is set on the child.
type TwigNode struct {
	Tag      string
	Children []*TwigNode
	// PC requires this node's match to be a direct child of its parent's
	// match (verified during solution merging).
	PC bool
}

// Twig builds an ancestor-descendant twig node.
func Twig(tag string, children ...*TwigNode) *TwigNode {
	return &TwigNode{Tag: tag, Children: children}
}

// TwigChild builds a parent-child twig node.
func TwigChild(tag string, children ...*TwigNode) *TwigNode {
	return &TwigNode{Tag: tag, Children: children, PC: true}
}

// TwigMatch is one complete match: the element ordinal bound to each
// pattern node, indexed by the pattern's preorder numbering.
type TwigMatch []int32

// TwigStack evaluates the twig pattern against one document and returns
// every complete match. Elements are read through an accessor, so store
// traffic is accounted like every other access method.
type TwigStack struct {
	Store *storage.Store
	Doc   storage.DocID
	Root  *TwigNode
	// Stats holds the accessor statistics after Run.
	Stats storage.AccessStats
	// Guard, when non-nil, is the cooperative cancellation and resource
	// budget, checked once per advance of the twig-join main loop.
	Guard *Guard
}

type twigState struct {
	node     *TwigNode
	parent   *twigState
	children []*twigState
	index    int // preorder index of the pattern node
	depth    int // chain depth from the pattern root

	stream []int32 // tag extent, document order
	pos    int

	// done marks a subtree that can emit no further path solutions (its
	// leaf streams are exhausted); sealed marks a node whose own stream
	// has become useless because some descendant subtree is done — no new
	// frame of a sealed node can ever participate in a complete twig, but
	// its existing stack frames remain available to sibling subtrees.
	done   bool
	sealed bool

	stack []twigFrame

	// solutions hold, for leaf states, the emitted root-to-leaf path
	// solutions: one ordinal per pattern node from the root down to this
	// leaf.
	solutions [][]int32
}

type twigFrame struct {
	ord       int32
	end       uint32
	parentTop int // len(parent.stack) at push time
}

func (s *twigState) eof() bool { return s.pos >= len(s.stream) }

// Run executes the twig join.
func (t *TwigStack) Run() ([]TwigMatch, error) {
	doc := t.Store.Doc(t.Doc)
	if doc == nil {
		return nil, fmt.Errorf("exec: TwigStack over unknown document %d", t.Doc)
	}
	if t.Root == nil {
		return nil, fmt.Errorf("exec: TwigStack without a pattern")
	}
	acc := storage.NewAccessor(t.Store)
	defer func() { t.Stats = acc.Stats }()
	t.Guard.Attach(acc)
	if err := t.Guard.Check(); err != nil {
		return nil, err
	}

	var states []*twigState
	var leaves []*twigState
	var build func(n *TwigNode, parent *twigState, depth int) *twigState
	build = func(n *TwigNode, parent *twigState, depth int) *twigState {
		st := &twigState{node: n, parent: parent, index: len(states), depth: depth}
		states = append(states, st)
		if tid, ok := t.Store.Tags.Lookup(n.Tag); ok {
			st.stream = doc.TagExtent(tid)
		}
		for _, c := range n.Children {
			st.children = append(st.children, build(c, st, depth+1))
		}
		if len(st.children) == 0 {
			leaves = append(leaves, st)
		}
		return st
	}
	root := build(t.Root, nil, 0)

	startOf := func(s *twigState) uint32 {
		if s.eof() {
			return math.MaxUint32
		}
		return acc.Node(t.Doc, s.stream[s.pos]).Start
	}
	endOf := func(s *twigState) uint32 {
		if s.eof() {
			return math.MaxUint32
		}
		return acc.Node(t.Doc, s.stream[s.pos]).End
	}

	// markDone flags a subtree as unable to emit further path solutions
	// and seals every ancestor: a sealed node's future stream elements
	// cannot appear in any complete twig (the done branch would be
	// missing), so the stream is drained; existing stack frames stay for
	// sibling subtrees.
	markDone := func(q *twigState) {
		q.done = true
		for p := q.parent; p != nil && !p.sealed; p = p.parent {
			p.sealed = true
			p.pos = len(p.stream)
		}
	}

	// getNext returns a pattern node whose head element is guaranteed to
	// contribute to some solution extension (the heart of TwigStack).
	// Subtrees already marked done are skipped; a node whose children are
	// all done becomes done itself.
	var getNext func(q *twigState) *twigState
	getNext = func(q *twigState) *twigState {
		if len(q.children) == 0 {
			return q
		}
		var nmin, nmax *twigState
		for _, qi := range q.children {
			if qi.done {
				continue
			}
			ni := getNext(qi)
			if ni != qi {
				return ni
			}
			if nmin == nil || startOf(ni) < startOf(nmin) {
				nmin = ni
			}
			if nmax == nil || startOf(ni) > startOf(nmax) {
				nmax = ni
			}
		}
		if nmin == nil { // every child subtree is done
			markDone(q)
			return q
		}
		for !q.eof() && endOf(q) < startOf(nmax) {
			q.pos++
		}
		if startOf(q) < startOf(nmin) {
			return q
		}
		return nmin
	}

	cleanStack := func(s *twigState, start uint32) {
		for len(s.stack) > 0 && s.stack[len(s.stack)-1].end < start {
			s.stack = s.stack[:len(s.stack)-1]
		}
	}

	// emitPaths records every root-to-leaf path ending at the leaf's
	// just-pushed frame, by walking parent-ward through the parentTop
	// links (each stack frame may extend through any frame at or below
	// the recorded parent top).
	var emitPaths func(leaf, s *twigState, frameIdx int, below []int32)
	emitPaths = func(leaf, s *twigState, frameIdx int, below []int32) {
		fr := s.stack[frameIdx]
		path := make([]int32, 0, len(below)+1)
		path = append(path, fr.ord)
		path = append(path, below...)
		if s.parent == nil {
			leaf.solutions = append(leaf.solutions, path)
			return
		}
		for i := 0; i < fr.parentTop; i++ {
			emitPaths(leaf, s.parent, i, path)
		}
	}

	anyLeafLive := func() bool {
		for _, l := range leaves {
			if !l.eof() {
				return true
			}
		}
		return false
	}

	for anyLeafLive() {
		if err := t.Guard.Tick(); err != nil {
			return nil, err
		}
		q := getNext(root)
		if q.done {
			continue // marked during getNext; the next call skips it
		}
		if q.eof() {
			if len(q.children) == 0 {
				markDone(q)
				continue
			}
			// An internal node is only returned when its head start is
			// smaller than a live child's, which an exhausted stream
			// (infinite start) cannot satisfy; bail out defensively.
			break
		}
		qStart := startOf(q)
		if q.parent != nil {
			cleanStack(q.parent, qStart)
		}
		if q.parent == nil || len(q.parent.stack) > 0 {
			cleanStack(q, qStart)
			parentTop := 0
			if q.parent != nil {
				parentTop = len(q.parent.stack)
			}
			q.stack = append(q.stack, twigFrame{
				ord:       q.stream[q.pos],
				end:       endOf(q),
				parentTop: parentTop,
			})
			q.pos++
			if len(q.children) == 0 {
				emitPaths(q, q, len(q.stack)-1, nil)
				q.stack = q.stack[:len(q.stack)-1] // leaves pop immediately
			}
		} else {
			q.pos++
		}
	}

	return t.merge(doc, states, leaves, acc)
}

// merge assembles complete twig matches from the per-leaf path solutions:
// a match chooses one solution per leaf such that all solutions agree on
// the ordinals of their shared pattern prefixes. Parent-child pattern
// edges are verified here.
func (t *TwigStack) merge(doc *storage.Document, states []*twigState, leaves []*twigState, acc *storage.Accessor) ([]TwigMatch, error) {
	var out []TwigMatch

	// leavesUnder[s] caches the leaf states in s's pattern subtree.
	leavesUnder := map[*twigState][]*twigState{}
	var collect func(s *twigState) []*twigState
	collect = func(s *twigState) []*twigState {
		if ls, ok := leavesUnder[s]; ok {
			return ls
		}
		var ls []*twigState
		if len(s.children) == 0 {
			ls = []*twigState{s}
		}
		for _, c := range s.children {
			ls = append(ls, collect(c)...)
		}
		leavesUnder[s] = ls
		return ls
	}

	prefixMatches := func(sol, prefix []int32) bool {
		for i, p := range prefix {
			if sol[i] != p {
				return false
			}
		}
		return true
	}

	// candidates returns the distinct ordinals state s can bind given the
	// prefix (assignments for states root..parent(s)).
	candidates := func(s *twigState, prefix []int32) []int32 {
		seen := map[int32]bool{}
		var out []int32
		for _, leaf := range collect(s) {
			for _, sol := range leaf.solutions {
				if len(sol) <= s.depth || !prefixMatches(sol, prefix) {
					continue
				}
				if o := sol[s.depth]; !seen[o] {
					seen[o] = true
					out = append(out, o)
				}
			}
		}
		return out
	}

	pcOK := func(s *twigState, childOrd, parentOrd int32) bool {
		if !s.node.PC {
			return true
		}
		return acc.Node(t.Doc, childOrd).Parent == parentOrd
	}

	assignment := make([]int32, len(states))
	var expand func(s *twigState, prefix []int32, rest func())
	expand = func(s *twigState, prefix []int32, rest func()) {
		for _, ord := range candidates(s, prefix) {
			if s.parent != nil && !pcOK(s, ord, prefix[len(prefix)-1]) {
				continue
			}
			assignment[s.index] = ord
			p2 := make([]int32, len(prefix)+1)
			copy(p2, prefix)
			p2[len(prefix)] = ord
			var kids func(i int)
			kids = func(i int) {
				if i == len(s.children) {
					rest()
					return
				}
				expand(s.children[i], p2, func() { kids(i + 1) })
			}
			kids(0)
		}
	}
	root := states[0]
	expand(root, nil, func() {
		out = append(out, append(TwigMatch(nil), assignment...))
	})
	_ = doc
	return out, nil
}
