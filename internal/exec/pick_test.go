package exec

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/algebra"
	"repro/internal/fixture"
	"repro/internal/pattern"
	"repro/internal/scoring"
	"repro/internal/tokenize"
	"repro/internal/xmltree"
)

// flattenScoredTree converts an algebra scored tree into the document-
// ordered PickNode stream the physical Pick consumes.
func flattenScoredTree(t *algebra.ScoredTree) []PickNode {
	var out []PickNode
	t.Root.Walk(func(n *xmltree.Node) bool {
		s, ok := t.Score(n)
		out = append(out, PickNode{
			Ord:      n.Ord,
			Start:    n.Start,
			End:      n.End,
			Level:    n.Level,
			Score:    s,
			HasScore: ok,
		})
		return true
	})
	return out
}

// figure6Tree builds the projected scored tree of the paper's Fig. 6.
func figure6Tree(t testing.TB) *algebra.ScoredTree {
	t.Helper()
	tok := tokenize.NewStemming()
	p := pattern.NewPattern(1)
	author := p.Root.Child(2, pattern.PC)
	author.Child(3, pattern.PC)
	p.Root.Child(4, pattern.ADStar)
	p.Formula = pattern.Conj(
		pattern.TagEq(1, "article"),
		pattern.TagEq(2, "author"),
		pattern.TagEq(3, "sname"),
		pattern.ContentEq(3, "Doe"),
		pattern.IsElement(4),
	)
	scores := &algebra.ScoreSet{
		Primary: map[int]algebra.NodeScorer{
			4: func(n *xmltree.Node) float64 {
				return scoring.ScoreFoo(tok, n, fixture.PrimaryPhrases, fixture.SecondaryPhrases)
			},
		},
		Secondary: map[int]algebra.ScoreExpr{1: algebra.VarScore(4)},
	}
	out := algebra.Project(algebra.FromXML(mustParse(fixture.ArticlesXML)), p, scores,
		[]int{1, 3, 4}, algebra.ProjectOptions{DropZeroIR: true})
	if len(out) != 1 {
		t.Fatalf("projection failed")
	}
	return out[0]
}

func TestStackPickReproducesFigure8(t *testing.T) {
	pt := figure6Tree(t)
	picked := StackPick(flattenScoredTree(pt), DefaultPickFuncs(0.8))

	// Expect chapter #a10, section-title #a13, and the three paragraphs.
	ordTag := map[int32]string{}
	pt.Root.Walk(func(n *xmltree.Node) bool {
		ordTag[n.Ord] = n.Tag
		return true
	})
	var tags []string
	for _, n := range picked {
		tags = append(tags, ordTag[n.Ord])
	}
	want := []string{"chapter", "section-title", "p", "p", "p"}
	if len(tags) != len(want) {
		t.Fatalf("picked = %v, want %v", tags, want)
	}
	for i := range want {
		if tags[i] != want[i] {
			t.Fatalf("picked = %v, want %v", tags, want)
		}
	}
}

func TestStackPickMatchesAlgebraOnFixture(t *testing.T) {
	pt := figure6Tree(t)
	phys := StackPick(flattenScoredTree(pt), DefaultPickFuncs(0.8))
	logical := algebra.PickedNodes(pt, algebra.DefaultCriterion(0.8))
	if len(phys) != len(logical) {
		t.Fatalf("physical %d vs logical %d", len(phys), len(logical))
	}
	for i := range phys {
		if phys[i].Ord != logical[i].Ord {
			t.Errorf("mismatch at %d: %d vs %d", i, phys[i].Ord, logical[i].Ord)
		}
	}
}

// randomScoredTree builds a random scored tree for equivalence testing.
func randomScoredTree(rng *rand.Rand, n int) *algebra.ScoredTree {
	root := xmltree.NewElement("r")
	nodes := []*xmltree.Node{root}
	for i := 1; i < n; i++ {
		parent := nodes[rng.Intn(len(nodes))]
		el := xmltree.NewElement([]string{"a", "b", "c"}[rng.Intn(3)])
		parent.AppendChild(el)
		nodes = append(nodes, el)
	}
	xmltree.Number(root)
	st := algebra.NewScoredTree(root)
	for _, n2 := range nodes {
		switch rng.Intn(3) {
		case 0:
			st.SetScore(n2, rng.Float64()*2) // scored node
		case 1:
			st.SetScore(n2, 0) // zero-scored IR node
		}
	}
	return st
}

func TestQuickStackPickEquivalentToLogicalPick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		st := randomScoredTree(rng, 2+rng.Intn(40))
		threshold := rng.Float64() * 1.5
		phys := StackPick(flattenScoredTree(st), DefaultPickFuncs(threshold))
		logical := algebra.PickedNodes(st, algebra.DefaultCriterion(threshold))
		if len(phys) != len(logical) {
			return false
		}
		for i := range phys {
			if phys[i].Ord != logical[i].Ord {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestStackPickParentChildExclusion(t *testing.T) {
	// Property: among the picked nodes, no picked node's parent (in the
	// input tree) is also picked when DetWorth derives from the default
	// criterion — the paper's "between a parent node and a child node,
	// only one of them will be returned".
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		st := randomScoredTree(rng, 2+rng.Intn(40))
		picked := StackPick(flattenScoredTree(st), DefaultPickFuncs(0.5))
		set := map[int32]bool{}
		for _, p := range picked {
			set[p.Ord] = true
		}
		ok := true
		st.Root.Walk(func(n *xmltree.Node) bool {
			if n.Parent != nil && set[n.Ord] && set[n.Parent.Ord] {
				ok = false
			}
			return true
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestStackPickEmptyAndUnscored(t *testing.T) {
	if got := StackPick(nil, DefaultPickFuncs(0.5)); len(got) != 0 {
		t.Errorf("empty input picked %d", len(got))
	}
	// A tree with no scores picks nothing.
	root := mustParse(`<a><b/><c/></a>`)
	st := algebra.NewScoredTree(root)
	if got := StackPick(flattenScoredTree(st), DefaultPickFuncs(0.5)); len(got) != 0 {
		t.Errorf("unscored tree picked %d", len(got))
	}
}

func TestStackPickWorthyRootFlushesAtEnd(t *testing.T) {
	// Root with two relevant children: root is worth returning, and the
	// final flush returns the root alone — its same-class survivors (none
	// at even parity besides itself) — subsuming the children, per the
	// Fig. 12 ending.
	root := mustParse(`<a><b/><c/></a>`)
	st := algebra.NewScoredTree(root)
	st.SetScore(root, 1.0)
	st.SetScore(root.Children[0], 1.0)
	st.SetScore(root.Children[1], 1.0)
	picked := StackPick(flattenScoredTree(st), DefaultPickFuncs(0.8))
	if len(picked) != 1 {
		t.Fatalf("picked = %d, want 1 (the worthy root subsumes its children)", len(picked))
	}
	if picked[0].Ord != root.Ord {
		t.Errorf("picked %d, want the root", picked[0].Ord)
	}
}

func TestScalePickInputSizes(t *testing.T) {
	// The Pick experiment of Sec. 6 runs from 200 to 55,000 input nodes;
	// verify the algorithm handles the upper end and stays linear-ish by
	// construction (single pass).
	rng := rand.New(rand.NewSource(9))
	st := randomScoredTree(rng, 55000)
	nodes := flattenScoredTree(st)
	if len(nodes) != 55000 {
		t.Fatalf("node count = %d", len(nodes))
	}
	picked := StackPick(nodes, DefaultPickFuncs(0.8))
	logical := algebra.PickedNodes(st, algebra.DefaultCriterion(0.8))
	if len(picked) != len(logical) {
		t.Fatalf("large input: physical %d vs logical %d", len(picked), len(logical))
	}
}

// TestPickArenaReuse runs random trees through one shared arena: every run
// must equal the logical Pick, and once the arena has grown to the largest
// input, a run allocates nothing.
func TestPickArenaReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var arena PickArena
	var largest []PickNode
	for i := 0; i < 200; i++ {
		st := randomScoredTree(rng, 2+rng.Intn(60))
		threshold := rng.Float64() * 1.5
		nodes := flattenScoredTree(st)
		if len(nodes) > len(largest) {
			largest = nodes
		}
		got, err := arena.Pick(nodes, DefaultPickFuncs(threshold), nil)
		if err != nil {
			t.Fatal(err)
		}
		want := algebra.PickedNodes(st, algebra.DefaultCriterion(threshold))
		if len(got) != len(want) {
			t.Fatalf("run %d: picked %d, logical %d", i, len(got), len(want))
		}
		for j := range got {
			if got[j].Ord != want[j].Ord {
				t.Fatalf("run %d: mismatch at %d: %d vs %d", i, j, got[j].Ord, want[j].Ord)
			}
		}
	}
	f := DefaultPickFuncs(0.8)
	if allocs := testing.AllocsPerRun(10, func() { _, _ = arena.Pick(largest, f, nil) }); allocs != 0 {
		t.Errorf("a run on a grown arena allocates %.0f times", allocs)
	}
}
