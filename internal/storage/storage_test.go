package storage

import (
	"errors"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/xmltree"
)

const articleDoc = `
<article>
  <article-title>Internet Technologies</article-title>
  <author id="first"><fname>Jane</fname><sname>Doe</sname></author>
  <chapter><ct>Caching and Replication</ct></chapter>
  <chapter><ct>Streaming Video</ct></chapter>
  <chapter>
    <ct>Search and Retrieval</ct>
    <section><section-title>Search Engine Basics</section-title></section>
    <section><section-title>Information Retrieval Techniques</section-title></section>
    <section>
      <section-title>Examples</section-title>
      <p>Here are some IR based search engines:</p>
      <p>search engine NewsInEssence uses a new information retrieval technology</p>
      <p>semantic information retrieval techniques are also being incorporated into some search engines</p>
    </section>
  </chapter>
</article>`

func loadArticle(t testing.TB) (*Store, *Document) {
	t.Helper()
	s := NewStore()
	root := mustParse(articleDoc)
	id, err := s.AddTree("articles.xml", root)
	if err != nil {
		t.Fatalf("AddTree: %v", err)
	}
	return s, s.Doc(id)
}

func TestAddTreeAndLookup(t *testing.T) {
	s, doc := loadArticle(t)
	if doc == nil || doc.Name != "articles.xml" {
		t.Fatalf("doc lookup failed")
	}
	if s.DocByName("articles.xml") != doc {
		t.Errorf("DocByName mismatch")
	}
	if s.DocByName("missing.xml") != nil {
		t.Errorf("DocByName(missing) should be nil")
	}
	if s.NumNodes() != len(doc.Nodes) {
		t.Errorf("NumNodes mismatch")
	}
	if _, err := s.AddTree("articles.xml", mustParse("<a/>")); err == nil {
		t.Errorf("duplicate name should error")
	}
}

func TestRecordsMirrorTree(t *testing.T) {
	_, doc := loadArticle(t)
	nodes := xmltree.Nodes(doc.Root)
	if len(nodes) != len(doc.Nodes) {
		t.Fatalf("record count %d != tree size %d", len(doc.Nodes), len(nodes))
	}
	for i, n := range nodes {
		rec := doc.Nodes[i]
		if rec.Start != n.Start || rec.End != n.End || rec.Level != n.Level || rec.Kind != n.Kind {
			t.Fatalf("record %d does not mirror node %v", i, n)
		}
		if n.Parent == nil {
			if rec.Parent != NoNode {
				t.Fatalf("root parent should be NoNode")
			}
		} else if rec.Parent != n.Parent.Ord {
			t.Fatalf("record %d parent %d != %d", i, rec.Parent, n.Parent.Ord)
		}
		if rec.ChildCount != int32(len(n.Children)) {
			t.Fatalf("record %d childcount %d != %d", i, rec.ChildCount, len(n.Children))
		}
	}
}

func TestTagExtent(t *testing.T) {
	s, doc := loadArticle(t)
	tid, ok := s.Tags.Lookup("chapter")
	if !ok {
		t.Fatalf("chapter tag not interned")
	}
	ext := doc.TagExtent(tid)
	if len(ext) != 3 {
		t.Fatalf("chapter extent = %d, want 3", len(ext))
	}
	for i := 1; i < len(ext); i++ {
		if doc.Nodes[ext[i]].Start <= doc.Nodes[ext[i-1]].Start {
			t.Errorf("extent not in document order")
		}
	}
	if s.Tags.Name(tid) != "chapter" {
		t.Errorf("tag name round trip failed")
	}
	var elems int
	for i := range doc.Nodes {
		if doc.Nodes[i].Kind == xmltree.Element {
			elems++
		}
	}
	if len(doc.Elements()) != elems {
		t.Errorf("Elements() = %d, want %d", len(doc.Elements()), elems)
	}
}

func TestOrdByStartAndSubtreeEnd(t *testing.T) {
	_, doc := loadArticle(t)
	for i := range doc.Nodes {
		if got := doc.OrdByStart(doc.Nodes[i].Start); got != int32(i) {
			t.Fatalf("OrdByStart(%d) = %d, want %d", doc.Nodes[i].Start, got, i)
		}
	}
	if doc.OrdByStart(0xFFFFFFF0) != NoNode {
		t.Errorf("OrdByStart(miss) should be NoNode")
	}
	// Subtree of the root covers everything.
	if got := doc.SubtreeEnd(0); got != int32(len(doc.Nodes)) {
		t.Errorf("SubtreeEnd(root) = %d, want %d", got, len(doc.Nodes))
	}
	// Subtree range equals the set of descendants by region test.
	for ord := range doc.Nodes {
		end := doc.SubtreeEnd(int32(ord))
		for j := range doc.Nodes {
			inRange := int32(j) >= int32(ord) && int32(j) < end
			isDesc := j == ord ||
				(doc.Nodes[ord].Start < doc.Nodes[j].Start && doc.Nodes[j].End <= doc.Nodes[ord].End)
			if inRange != isDesc {
				t.Fatalf("subtree range wrong for ord %d at %d", ord, j)
			}
		}
	}
}

func TestAccessorAncestors(t *testing.T) {
	s, doc := loadArticle(t)
	a := NewAccessor(s)
	// Find the second <p>'s text node.
	var pOrd int32 = NoNode
	tid, _ := s.Tags.Lookup("p")
	pOrd = doc.TagExtent(tid)[1]
	anc := a.Ancestors(doc.ID, pOrd)
	wantTags := []string{"section", "chapter", "article"}
	if len(anc) != len(wantTags) {
		t.Fatalf("ancestors = %d, want %d", len(anc), len(wantTags))
	}
	for i, ord := range anc {
		if got := s.Tags.Name(doc.Nodes[ord].Tag); got != wantTags[i] {
			t.Errorf("ancestor %d = %s, want %s", i, got, wantTags[i])
		}
	}
	if a.Stats.NodeReads == 0 {
		t.Errorf("accessor did not count reads")
	}
}

func TestChildCountNavVsIndexed(t *testing.T) {
	s, doc := loadArticle(t)
	nav := NewAccessor(s)
	idx := NewAccessor(s)
	for ord := range doc.Nodes {
		n := nav.ChildCountNav(doc.ID, int32(ord))
		_, c := idx.ChildCountIndexed(doc.ID, int32(ord))
		if n != c {
			t.Fatalf("child counts disagree at %d: nav %d idx %d", ord, n, c)
		}
	}
	if nav.Stats.NodeReads <= idx.Stats.NodeReads {
		t.Errorf("navigation should cost more node reads than the index (%d vs %d)",
			nav.Stats.NodeReads, idx.Stats.NodeReads)
	}
	if nav.Stats.NavSteps == 0 {
		t.Errorf("navigation steps not counted")
	}
}

func TestSubtreeText(t *testing.T) {
	s, doc := loadArticle(t)
	a := NewAccessor(s)
	got := a.SubtreeText(doc.ID, 0)
	want := doc.Root.AllText()
	if got != want {
		t.Errorf("SubtreeText(root) = %q, want %q", got, want)
	}
	tid, _ := s.Tags.Lookup("sname")
	ord := doc.TagExtent(tid)[0]
	if got := a.SubtreeText(doc.ID, ord); got != "Doe" {
		t.Errorf("SubtreeText(sname) = %q", got)
	}
	if a.Stats.TextReads == 0 {
		t.Errorf("text reads not counted")
	}
}

func TestMaterialize(t *testing.T) {
	s, doc := loadArticle(t)
	a := NewAccessor(s)
	tid, _ := s.Tags.Lookup("section")
	ord := doc.TagExtent(tid)[2]
	n := a.Materialize(doc.ID, ord)
	if n == nil || n.Tag != "section" {
		t.Fatalf("Materialize returned %v", n)
	}
	if len(n.FindTag("p")) != 3 {
		t.Errorf("materialized subtree missing paragraphs")
	}
	if a.Stats.NodeReads == 0 {
		t.Errorf("materialize should charge reads")
	}
}

func TestPageAccounting(t *testing.T) {
	s := NewStore()
	// Build a wide flat tree spanning multiple pages.
	root := xmltree.NewElement("root")
	for i := 0; i < PageSize*3; i++ {
		c := xmltree.NewElement("c")
		c.AppendChild(xmltree.NewText("w"))
		root.AppendChild(c)
	}
	xmltree.Number(root)
	id, err := s.AddTree("wide.xml", root)
	if err != nil {
		t.Fatal(err)
	}
	seq := NewAccessor(s)
	n := len(s.Doc(id).Nodes)
	for i := 0; i < n; i++ {
		seq.Node(id, int32(i))
	}
	scattered := NewAccessor(s)
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < n; i++ {
		scattered.Node(id, int32(rng.Intn(n)))
	}
	if seq.Stats.PageReads >= scattered.Stats.PageReads {
		t.Errorf("sequential scan (%d pages) should touch fewer pages than random access (%d)",
			seq.Stats.PageReads, scattered.Stats.PageReads)
	}
	var sum AccessStats
	sum.Add(seq.Stats)
	sum.Add(scattered.Stats)
	if sum.NodeReads != seq.Stats.NodeReads+scattered.Stats.NodeReads {
		t.Errorf("Add miscounts")
	}
	if !strings.Contains(sum.String(), "nodes=") {
		t.Errorf("String format: %s", sum.String())
	}
	sum.Reset()
	if sum.NodeReads != 0 {
		t.Errorf("Reset failed")
	}
}

func TestTreeNodeLookup(t *testing.T) {
	_, doc := loadArticle(t)
	for ord := range doc.Nodes {
		n := doc.TreeNode(int32(ord))
		if n == nil || n.Ord != int32(ord) {
			t.Fatalf("TreeNode(%d) = %v", ord, n)
		}
	}
	if doc.TreeNode(-1) != nil || doc.TreeNode(int32(len(doc.Nodes))) != nil {
		t.Errorf("out-of-range TreeNode should be nil")
	}
}

func TestTagDictUnknown(t *testing.T) {
	d := NewTagDict()
	if name := d.Name(TagID(42)); name != "tag#42" {
		t.Errorf("unknown tag name = %q", name)
	}
	if _, ok := d.Lookup("missing"); ok {
		t.Errorf("Lookup(missing) should fail")
	}
	a := d.Intern("x")
	if b := d.Intern("x"); a != b {
		t.Errorf("re-intern changed id")
	}
	if d.Len() != 1 {
		t.Errorf("Len = %d", d.Len())
	}
}

func TestStoreDocBounds(t *testing.T) {
	s, doc := loadArticle(t)
	if s.Doc(doc.ID) != doc {
		t.Errorf("Doc lookup failed")
	}
	if s.Doc(-1) != nil || s.Doc(99) != nil {
		t.Errorf("out-of-range Doc should be nil")
	}
	if len(s.Docs()) != 1 {
		t.Errorf("Docs = %d", len(s.Docs()))
	}
}

func TestAddTreeRejectsUnnumberedOrdinals(t *testing.T) {
	// A hand-built tree whose ordinals were tampered with must be caught.
	root := mustParse(`<a><b/></a>`)
	root.Children[0].Ord = 5
	s := NewStore()
	if _, err := s.AddTree("bad", root); err == nil {
		t.Errorf("tampered ordinals accepted")
	}
}

// TestAddTreeRejectsStrayParent: a built tree whose child points at a
// node other than the one holding it would store a wrong parent link; it
// is rejected with a typed error and leaves the store empty.
func TestAddTreeRejectsStrayParent(t *testing.T) {
	root := mustParse(`<a><b><c>x</c></b><d/></a>`)
	root.Children[0].Children[0].Parent = root.Children[1]
	s := NewStore()
	if _, err := s.AddTree("bad", root); !errors.Is(err, xmltree.ErrStrayParent) {
		t.Fatalf("AddTree = %v, want ErrStrayParent", err)
	}
	if s.NumDocs() != 0 {
		t.Fatalf("store holds %d documents after a rejected tree", s.NumDocs())
	}
}

func TestQuickStoreMirrorsRandomTrees(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		root := randomTree(rng, 2+rng.Intn(50))
		s := NewStore()
		id, err := s.AddTree("t", root)
		if err != nil {
			return false
		}
		doc := s.Doc(id)
		ok := true
		root.Walk(func(n *xmltree.Node) bool {
			rec := doc.Nodes[n.Ord]
			if rec.Start != n.Start || rec.End != n.End {
				ok = false
				return false
			}
			if n.Kind == xmltree.Element && s.Tags.Name(rec.Tag) != n.Tag {
				ok = false
				return false
			}
			if n.Kind == xmltree.Text && rec.Text != n.Text {
				ok = false
				return false
			}
			return true
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func randomTree(rng *rand.Rand, n int) *xmltree.Node {
	root := xmltree.NewElement("r")
	nodes := []*xmltree.Node{root}
	for i := 1; i < n; i++ {
		parent := nodes[rng.Intn(len(nodes))]
		el := xmltree.NewElement([]string{"a", "b", "c"}[rng.Intn(3)])
		parent.AppendChild(el)
		nodes = append(nodes, el)
		if rng.Intn(3) == 0 {
			el.AppendChild(xmltree.NewText("some words here"))
		}
	}
	xmltree.Number(root)
	return root
}
