package storage

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"unsafe"

	"repro/internal/synth"
	"repro/internal/xmltree"
)

// checkElementIndex requires doc's element index to agree with a scan of
// its records: Elements is every element in document order, TagExtent(t)
// is those with tag t (nil when there are none, and for ids the store never
// assigned), TreeNode(o) is the tree node numbered o and nil outside the
// document, and appending to any returned slice changes none of them.
func checkElementIndex(t *testing.T, s *Store, doc *Document) {
	t.Helper()
	var elements []int32
	byTag := map[TagID][]int32{}
	for i, rec := range doc.Nodes {
		if rec.Kind == xmltree.Element {
			elements = append(elements, int32(i))
			byTag[rec.Tag] = append(byTag[rec.Tag], int32(i))
		}
	}
	tags := TagID(s.Tags.Len())
	check := func(when string) {
		t.Helper()
		if got := doc.Elements(); !slices.Equal(got, elements) {
			t.Fatalf("%s %s: Elements() = %v, want %v", doc.Name, when, got, elements)
		}
		for tag := TagID(-1); tag <= tags; tag++ {
			got, want := doc.TagExtent(tag), byTag[tag]
			if (got == nil) != (want == nil) || !slices.Equal(got, want) {
				t.Fatalf("%s %s: TagExtent(%d) = %v, want %v", doc.Name, when, tag, got, want)
			}
		}
	}
	check("as loaded")

	nodes := xmltree.Nodes(doc.Root)
	for ord := range doc.Nodes {
		if n := doc.TreeNode(int32(ord)); n != nodes[ord] || n.Ord != int32(ord) {
			t.Fatalf("%s: TreeNode(%d) = %v, want the node numbered %d", doc.Name, ord, n, ord)
		}
	}
	if doc.TreeNode(-1) != nil || doc.TreeNode(int32(len(doc.Nodes))) != nil {
		t.Fatalf("%s: TreeNode outside the document is not nil", doc.Name)
	}

	_ = append(doc.Elements(), -1)
	for tag := TagID(0); tag < tags; tag++ {
		_ = append(doc.TagExtent(tag), -1)
	}
	check("after appends")
}

// TestElementIndexMatchesRecords runs checkElementIndex over random trees,
// the synthetic articles corpus and stream documents, all in one store, so
// every document meets tag ids that only other documents use.
func TestElementIndexMatchesRecords(t *testing.T) {
	s := NewStore()
	var ids []DocID
	add := func(name string, root *xmltree.Node) {
		t.Helper()
		id, err := s.AddTree(name, root)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	corpus, err := synth.Generate(synth.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	add("articles.xml", corpus.Root)
	if _, err := synth.GenerateStream(synth.DefaultStreamConfig(50), func(i int, root *xmltree.Node) error {
		add(fmt.Sprintf("stream%03d.xml", i), root)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for seed := int64(0); seed < 100; seed++ {
		rng := rand.New(rand.NewSource(seed))
		add(fmt.Sprintf("random%03d.xml", seed), randomTree(rng, 1+rng.Intn(60)))
	}
	add("text-only.xml", mustParse(`<a>only words</a>`))
	for _, id := range ids {
		checkElementIndex(t, s, s.Doc(id))
	}
}

// TestAddTreeAllocs pins AddTree's allocations on a fixed 7-node, 2-tag
// document, the test's own name string included, and the Document
// record's size: a per-document map or a lazily built side table would
// show in one or the other.
func TestAddTreeAllocs(t *testing.T) {
	const ceiling = 5
	root := mustParse(`<a><b>x</b><b>y</b><a>z</a></a>`)
	if n := len(xmltree.Nodes(root)); n != 7 {
		t.Fatalf("fixture has %d nodes, want 7", n)
	}
	s := NewStore()
	i := 0
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := s.AddTree(fmt.Sprint("doc", i), root); err != nil {
			t.Fatal(err)
		}
		i++
	})
	if allocs > ceiling {
		t.Errorf("AddTree = %v allocations, ceiling %d", allocs, ceiling)
	}
	if size := unsafe.Sizeof(Document{}); size > 80 {
		t.Errorf("Document is %d bytes, want at most 80", size)
	}
}
