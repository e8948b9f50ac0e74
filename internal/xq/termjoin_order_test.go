package xq

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/exec"
	"repro/internal/index"
	"repro/internal/scoring"
	"repro/internal/storage"
	"repro/internal/tokenize"
	"repro/internal/xmltree"
)

// nestedDoc builds a random document whose root <r> heads a spine of depth
// elements, with elements and text hung off random elements in random
// child order, so scored elements nest 1 to depth levels deep and text
// sits before, between and after element children.
func nestedDoc(rng *rand.Rand, depth int, words []string) *xmltree.Node {
	root := xmltree.NewElement("r")
	elems := []*xmltree.Node{root}
	for spine := root; len(elems) < depth; {
		c := xmltree.NewElement("s")
		spine.AppendChild(c)
		elems = append(elems, c)
		spine = c
	}
	for i := rng.Intn(60); i > 0; i-- {
		parent := elems[rng.Intn(len(elems))]
		if rng.Intn(2) == 0 {
			el := xmltree.NewElement(fmt.Sprintf("e%d", rng.Intn(3)))
			parent.AppendChild(el)
			elems = append(elems, el)
			continue
		}
		text := make([]string, 1+rng.Intn(4))
		for w := range text {
			text[w] = words[rng.Intn(len(words))]
		}
		parent.AppendChild(xmltree.NewText(strings.Join(text, " ")))
	}
	xmltree.Number(root)
	return root
}

// TestTermJoinPlacementMatchesSort holds Engine.termJoin, which places
// each element at its document-order rank as TermJoin emits it, to the
// sort by ord of TermJoin's postorder output it replaced: on random
// trees nested 1 to 40 deep, on a term in the root's own text, and on a
// bound document whose only scored element is its root. A filler
// document comes first so the bound document is not document 0.
func TestTermJoinPlacementMatchesSort(t *testing.T) {
	words := []string{"alpha", "beta", "filler", "noise"}
	rng := rand.New(rand.NewSource(1))
	docs := []*xmltree.Node{
		mustParse(`<r>alpha <a><b>beta</b>alpha</a> noise</r>`),          // a term in the root's own text
		mustParse(`<r>filler alpha<a>noise</a><b><c>filler</c></b></r>`), // one scored element: the root
		mustParse(`<r><a><b><c><d>alpha</d></c></b></a></r>`),            // one chain
	}
	for i := 0; i < 300; i++ {
		docs = append(docs, nestedDoc(rng, 1+rng.Intn(40), words))
	}
	for i, root := range docs {
		s := storage.NewStore()
		if _, err := s.AddTree("filler.xml", mustParse(`<f>alpha beta <g>alpha</g></f>`)); err != nil {
			t.Fatal(err)
		}
		if _, err := s.AddTree("doc.xml", root); err != nil {
			t.Fatal(err)
		}
		idx := index.Build(s, tokenize.New())
		q, err := Parse(`For $a in document("doc.xml")//r/descendant-or-self::* Score $a using ScoreFoo($a, {"alpha"}, {"beta"})`)
		if err != nil {
			t.Fatal(err)
		}
		p, err := Compile(q, idx)
		if err != nil {
			t.Fatal(err)
		}
		got, err := (&Engine{Index: idx}).termJoin(storage.NewAccessor(s), p)
		if err != nil {
			t.Fatal(err)
		}
		want, err := exec.Collect((&exec.TermJoin{
			Index: idx,
			Acc:   storage.NewAccessor(s),
			Query: exec.TermQuery{
				Terms:  p.names,
				Lists:  p.lists,
				Scorer: exec.DefaultScorer{SimpleFn: scoring.SimpleScorer{Weights: p.weights}},
			},
		}).Run)
		if err != nil {
			t.Fatal(err)
		}
		slices.SortFunc(want, func(a, b exec.ScoredNode) int { return cmp.Compare(a.Ord, b.Ord) })
		if !slices.Equal(got, want) {
			t.Fatalf("document %d (%s):\nplaced %v\nsorted %v", i, xmltree.XMLString(root), got, want)
		}
		if i == 1 && len(got) != 1 {
			t.Fatalf("document 1 scores %d elements, want only its root: %v", len(got), got)
		}
	}
}

// TestPhraseIsScopedUnderMaxResults: a phrase pseudo-term is found in the
// bound document only. big.xml holds the phrase 200 times and small.xml
// once, so a PhraseFinder over the whole index would emit 201 matches and
// trip a 20-result budget; scoped to small.xml, the query emits one match
// and TermJoin's two scored elements, and succeeds.
func TestPhraseIsScopedUnderMaxResults(t *testing.T) {
	s := storage.NewStore()
	for _, d := range []struct{ name, src string }{
		{"big.xml", "<r>" + strings.Repeat("<p>alpha beta</p>", 200) + "</r>"},
		{"small.xml", "<r><p>alpha beta</p><q>gamma</q></r>"},
	} {
		if _, err := s.AddTree(d.name, mustParse(d.src)); err != nil {
			t.Fatal(err)
		}
	}
	idx := index.Build(s, tokenize.New())
	const limit = 20
	whole, err := exec.CollectPhrase((&exec.PhraseFinder{Index: idx, Phrase: []string{"alpha", "beta"}}).Run)
	if err != nil || len(whole) <= limit {
		t.Fatalf("corpus-wide phrase matches %d (%v), want more than %d", len(whole), err, limit)
	}
	e := &Engine{Index: idx, Guard: exec.NewGuard(context.Background(), exec.Limits{MaxResults: limit})}
	rs, err := e.EvalString(`For $a in document("small.xml")//r/descendant-or-self::* Score $a using ScoreFoo($a, {"alpha beta"}, {"delta"}) Sortby(score)`)
	if errors.Is(err, exec.ErrLimitExceeded) {
		t.Fatalf("the bound document's phrase search exceeded %d results: %v", limit, err)
	}
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(resultKeys(rs), " "); len(rs) != 2 {
		t.Fatalf("results %s, want <p> and <r>", got)
	}
}
