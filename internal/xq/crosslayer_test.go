package xq

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/algebra"
	"repro/internal/index"
	"repro/internal/pattern"
	"repro/internal/scoring"
	"repro/internal/storage"
	"repro/internal/tokenize"
	"repro/internal/xmltree"
)

// TestQuickPhysicalMatchesLogical cross-checks the two independent
// implementations of the paper's semantics on random documents: the
// physical pipeline (path evaluation → TermJoin → StackPick) must agree
// with the logical algebra (pattern match → Project → Pick) on both the
// scored element sets and the picked sets.
func TestQuickPhysicalMatchesLogical(t *testing.T) {
	words := []string{"alpha", "beta", "filler", "noise"}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		root := randomDoc(rng, words)
		tok := tokenize.New()

		// Physical side.
		s := storage.NewStore()
		if _, err := s.AddTree("doc.xml", root); err != nil {
			return false
		}
		e := &Engine{Index: index.Build(s, tok)}
		phys, err := e.EvalString(`
			For $a in document("doc.xml")//article/descendant-or-self::*
			Score $a using ScoreFoo($a, {"alpha"}, {"beta"})
			Sortby(score)
		`)
		if err != nil {
			t.Logf("seed %d: eval: %v", seed, err)
			return false
		}

		// Logical side: the same semantics through the algebra. Note the
		// logical layer works on an independent clone of the document.
		clone := root.Clone()
		xmltree.Number(clone)
		p := pattern.NewPattern(1)
		p.Root.Child(4, pattern.ADStar)
		p.Formula = pattern.Conj(pattern.TagEq(1, "article"), pattern.IsElement(4))
		scores := &algebra.ScoreSet{
			Primary: map[int]algebra.NodeScorer{4: func(n *xmltree.Node) float64 {
				return scoring.ScoreFoo(tok, n, []string{"alpha"}, []string{"beta"})
			}},
			Secondary: map[int]algebra.ScoreExpr{1: algebra.VarScore(4)},
		}
		logical := algebra.Project(algebra.FromXML(clone), p, scores,
			[]int{1, 4}, algebra.ProjectOptions{DropZeroIR: true})

		// Collect (ord → score) from both sides. The logical projection
		// retains its root even when zero-scored (it is the $1 binding);
		// the physical side only emits occurrence-containing elements.
		physScores := map[int32]float64{}
		for _, r := range phys {
			if r.Score > 0 {
				physScores[r.Ord] = r.Score
			}
		}
		logScores := map[int32]float64{}
		for _, lt := range logical {
			for n, sc := range lt.Scores {
				if sc > 0 {
					logScores[n.Ord] = sc
				}
			}
		}
		if len(physScores) != len(logScores) {
			t.Logf("seed %d: phys %d vs logical %d scored nodes", seed, len(physScores), len(logScores))
			return false
		}
		for ord, sc := range logScores {
			if got, ok := physScores[ord]; !ok || math.Abs(got-sc) > 1e-9 {
				t.Logf("seed %d: ord %d phys %v logical %v", seed, ord, physScores[ord], sc)
				return false
			}
		}

		// Picked sets agree as well (both layers implement Fig. 12).
		physPicked, err := e.EvalString(`
			For $a in document("doc.xml")//article/descendant-or-self::*
			Score $a using ScoreFoo($a, {"alpha"}, {"beta"})
			Pick $a using PickFoo($a)
		`)
		if err != nil {
			return false
		}
		pickedOrds := map[int32]bool{}
		for _, r := range physPicked {
			pickedOrds[r.Ord] = true
		}
		logPickedCount := 0
		for _, lt := range logical {
			for _, n := range algebra.PickedNodes(lt, algebra.DefaultCriterion(0.8)) {
				logPickedCount++
				if !pickedOrds[n.Ord] {
					t.Logf("seed %d: logical picked ord %d missing physically", seed, n.Ord)
					return false
				}
			}
		}
		return logPickedCount == len(pickedOrds)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// randomDoc builds a random article with text leaves drawn from words.
func randomDoc(rng *rand.Rand, words []string) *xmltree.Node {
	root := xmltree.NewElement("article")
	elems := []*xmltree.Node{root}
	n := 2 + rng.Intn(20)
	for i := 0; i < n; i++ {
		parent := elems[rng.Intn(len(elems))]
		el := xmltree.NewElement(fmt.Sprintf("e%d", rng.Intn(4)))
		parent.AppendChild(el)
		elems = append(elems, el)
		if rng.Intn(2) == 0 {
			text := ""
			for w := 0; w < 1+rng.Intn(5); w++ {
				if text != "" {
					text += " "
				}
				text += words[rng.Intn(len(words))]
			}
			el.AppendChild(xmltree.NewText(text))
		}
	}
	xmltree.Number(root)
	return root
}
