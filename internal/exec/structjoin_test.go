package exec

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/index"
	"repro/internal/storage"
	"repro/internal/tokenize"
	"repro/internal/xmltree"
)

func TestStructuralJoinCountAgainstNaive(t *testing.T) {
	idx := buildFixtureIndex(t)
	s := idx.Store()
	doc := s.DocByName("articles.xml")
	acc := storage.NewAccessor(s)

	var positions []uint32
	for _, p := range idx.List("search").Materialize() {
		if p.Doc == doc.ID {
			positions = append(positions, p.Pos)
		}
	}
	got, _ := StructuralJoinCountGuarded(acc, doc.ID, doc.Elements(), positions, nil)

	// Naive containment count.
	var want []OrdCount
	for _, ord := range doc.Elements() {
		rec := doc.Nodes[ord]
		n := 0
		for _, pos := range positions {
			if pos > rec.Start && pos <= rec.End {
				n++
			}
		}
		if n > 0 {
			want = append(want, OrdCount{Ord: ord, Count: n})
		}
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("structural join: got %v, want %v", got, want)
	}
	if len(want) == 0 {
		t.Fatalf("empty workload")
	}
}

func TestStructuralJoinSubsetAncestors(t *testing.T) {
	idx := buildFixtureIndex(t)
	s := idx.Store()
	doc := s.DocByName("articles.xml")
	acc := storage.NewAccessor(s)
	tid, _ := s.Tags.Lookup("chapter")
	chapters := doc.TagExtent(tid)
	var positions []uint32
	for _, p := range idx.List("search").Materialize() {
		if p.Doc == doc.ID {
			positions = append(positions, p.Pos)
		}
	}
	got, _ := StructuralJoinCountGuarded(acc, doc.ID, chapters, positions, nil)
	// Only the third chapter contains "search" occurrences (5 of them:
	// ct, section-title, and three paragraphs — with stemming, "search"
	// appears in ct #a11, #a13, #a18, #a19, #a20).
	if len(got) != 1 {
		t.Fatalf("got %v, want exactly the third chapter", got)
	}
	if got[0].Ord != chapters[2] {
		t.Errorf("wrong chapter: %d", got[0].Ord)
	}
	if got[0].Count != 5 {
		t.Errorf("count = %d, want 5", got[0].Count)
	}
}

func TestStructuralJoinEmptyInputs(t *testing.T) {
	idx := buildFixtureIndex(t)
	s := idx.Store()
	doc := s.DocByName("articles.xml")
	acc := storage.NewAccessor(s)
	if got, _ := StructuralJoinCountGuarded(acc, doc.ID, nil, []uint32{5, 6}, nil); len(got) != 0 {
		t.Errorf("no ancestors should produce nothing: %v", got)
	}
	if got, _ := StructuralJoinCountGuarded(acc, doc.ID, doc.Elements(), nil, nil); len(got) != 0 {
		t.Errorf("no positions should produce nothing: %v", got)
	}
}

func TestAncDescPairsAgainstNaive(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		root := randomElemTree(rng, 3+rng.Intn(30))
		s := storage.NewStore()
		id, err := s.AddTree("t", root)
		if err != nil {
			return false
		}
		doc := s.Doc(id)
		acc := storage.NewAccessor(s)
		// Random subsets as ancestor and descendant lists (document order).
		var alist, dlist []int32
		for _, ord := range doc.Elements() {
			if rng.Intn(2) == 0 {
				alist = append(alist, ord)
			}
			if rng.Intn(2) == 0 {
				dlist = append(dlist, ord)
			}
		}
		got, _ := AncDescPairsGuarded(acc, doc.ID, alist, dlist, nil)
		var want [][2]int32
		for _, d := range dlist {
			for _, a := range alist {
				ra, rd := doc.Nodes[a], doc.Nodes[d]
				if ra.Start < rd.Start && rd.End <= ra.End {
					want = append(want, [2]int32{a, d})
				}
			}
		}
		if len(got) != len(want) {
			return false
		}
		gotSet := map[[2]int32]bool{}
		for _, p := range got {
			gotSet[p] = true
		}
		for _, p := range want {
			if !gotSet[p] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickStructuralJoinRandom(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		root := randomTextTree(rng, 3+rng.Intn(25))
		s := storage.NewStore()
		id, err := s.AddTree("t", root)
		if err != nil {
			return false
		}
		doc := s.Doc(id)
		idx := index.Build(s, tokenize.New())
		acc := storage.NewAccessor(s)
		var positions []uint32
		for _, p := range idx.List("tix").Materialize() {
			positions = append(positions, p.Pos)
		}
		got, _ := StructuralJoinCountGuarded(acc, doc.ID, doc.Elements(), positions, nil)
		gotMap := map[int32]int{}
		for _, oc := range got {
			gotMap[oc.Ord] = oc.Count
		}
		for _, ord := range doc.Elements() {
			rec := doc.Nodes[ord]
			n := 0
			for _, pos := range positions {
				if pos > rec.Start && pos <= rec.End {
					n++
				}
			}
			if n != gotMap[ord] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func randomElemTree(rng *rand.Rand, n int) *xmltree.Node {
	root := xmltree.NewElement("r")
	nodes := []*xmltree.Node{root}
	for i := 1; i < n; i++ {
		parent := nodes[rng.Intn(len(nodes))]
		el := xmltree.NewElement([]string{"a", "b", "c"}[rng.Intn(3)])
		parent.AppendChild(el)
		nodes = append(nodes, el)
	}
	xmltree.Number(root)
	return root
}

func randomTextTree(rng *rand.Rand, n int) *xmltree.Node {
	root := xmltree.NewElement("r")
	nodes := []*xmltree.Node{root}
	words := []string{"tix", "xml", "db", "tix tix", "query tix"}
	for i := 1; i < n; i++ {
		parent := nodes[rng.Intn(len(nodes))]
		el := xmltree.NewElement([]string{"a", "b"}[rng.Intn(2)])
		parent.AppendChild(el)
		nodes = append(nodes, el)
		if rng.Intn(2) == 0 {
			el.AppendChild(xmltree.NewText(words[rng.Intn(len(words))]))
		}
	}
	xmltree.Number(root)
	return root
}
