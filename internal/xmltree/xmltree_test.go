package xmltree

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
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

func TestParseArticle(t *testing.T) {
	root, err := ParseString(articleDoc)
	if err != nil {
		t.Fatalf("ParseString: %v", err)
	}
	if root.Tag != "article" {
		t.Fatalf("root tag = %q, want article", root.Tag)
	}
	if err := Validate(root); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	chapters := root.FindTag("chapter")
	if len(chapters) != 3 {
		t.Fatalf("chapters = %d, want 3", len(chapters))
	}
	ps := root.FindTag("p")
	if len(ps) != 3 {
		t.Fatalf("p elements = %d, want 3", len(ps))
	}
	if got, _ := root.FirstTag("author").Attr("id"); got != "first" {
		t.Errorf("author/@id = %q, want first", got)
	}
	sname := root.FirstTag("sname")
	if sname.AllText() != "Doe" {
		t.Errorf("sname text = %q, want Doe", sname.AllText())
	}
}

func TestParseMultipleRootsWrapped(t *testing.T) {
	doc := `<review id="1"><rating>5</rating></review><review id="2"><rating>3</rating></review>`
	root, err := ParseString(doc)
	if err != nil {
		t.Fatalf("ParseString: %v", err)
	}
	if root.Tag != "wrapper" {
		t.Fatalf("root = %q, want wrapper", root.Tag)
	}
	if len(root.Children) != 2 {
		t.Fatalf("children = %d, want 2", len(root.Children))
	}
	if err := Validate(root); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		"",
		"<a><b></a>",
		"<a>",
	}
	for _, c := range cases {
		if _, err := ParseString(c); err == nil {
			t.Errorf("ParseString(%q): expected error", c)
		}
	}
}

func TestAncestry(t *testing.T) {
	root := mustParse(articleDoc)
	p := root.FindTag("p")[1]
	section := root.FindTag("section")[2]
	chapter := root.FindTag("chapter")[2]
	other := root.FindTag("chapter")[0]

	if !section.IsAncestorOf(p) {
		t.Errorf("section should be ancestor of p")
	}
	if !chapter.IsAncestorOf(p) {
		t.Errorf("chapter should be ancestor of p")
	}
	if !root.IsAncestorOf(p) {
		t.Errorf("root should be ancestor of p")
	}
	if other.IsAncestorOf(p) {
		t.Errorf("first chapter must not be ancestor of p under third chapter")
	}
	if p.IsAncestorOf(p) {
		t.Errorf("node is not its own ancestor")
	}
	if !p.Contains(p) {
		t.Errorf("Contains must include self (ad*)")
	}

	anc := p.Ancestors()
	if len(anc) != 3 {
		t.Fatalf("ancestors = %d, want 3 (section, chapter, article)", len(anc))
	}
	if anc[0] != section || anc[1] != chapter || anc[2] != root {
		t.Errorf("ancestor chain order wrong: %v", anc)
	}
	if p.Root() != root {
		t.Errorf("Root() wrong")
	}
}

func TestRegionEncodingMatchesAncestry(t *testing.T) {
	root := mustParse(articleDoc)
	nodes := Nodes(root)
	for _, a := range nodes {
		for _, d := range nodes {
			want := false
			for p := d.Parent; p != nil; p = p.Parent {
				if p == a {
					want = true
					break
				}
			}
			if got := a.IsAncestorOf(d); got != want {
				t.Fatalf("IsAncestorOf(%v, %v) = %v, want %v", a, d, got, want)
			}
		}
	}
}

func TestWordPositionsInsideRegions(t *testing.T) {
	root := mustParse(`<a><b>one two three</b><c>four</c></a>`)
	b := root.FirstTag("b")
	tn := b.Children[0]
	if tn.Kind != Text {
		t.Fatalf("expected text child")
	}
	// Three words occupy positions Start..Start+2 and must be within b's
	// region and a's region.
	for k := uint32(0); k < 3; k++ {
		pos := tn.Start + k
		if !(b.Start < pos || b.Start == pos) || pos > b.End {
			t.Errorf("word %d at %d outside <b> region [%d,%d]", k, pos, b.Start, b.End)
		}
		if pos <= root.Start || pos >= root.End {
			t.Errorf("word %d at %d outside <a> region [%d,%d]", k, pos, root.Start, root.End)
		}
	}
	c := root.FirstTag("c")
	if c.Start <= b.End {
		t.Errorf("sibling c region [%d,%d] must start after b ends at %d", c.Start, c.End, b.End)
	}
}

func TestAllText(t *testing.T) {
	root := mustParse(`<a><b>hello</b><c><d>brave new</d> world</c></a>`)
	if got := root.AllText(); got != "hello brave new world" {
		t.Errorf("AllText = %q", got)
	}
	if got := root.FirstTag("c").AllText(); got != "brave new world" {
		t.Errorf("AllText(c) = %q", got)
	}
}

func TestCloneIndependence(t *testing.T) {
	root := mustParse(articleDoc)
	cp := root.Clone()
	if cp.Parent != nil {
		t.Errorf("clone parent must be nil")
	}
	if cp.Size() != root.Size() {
		t.Fatalf("clone size %d != %d", cp.Size(), root.Size())
	}
	cp.FirstTag("sname").Children[0].Text = "Smith"
	if root.FirstTag("sname").AllText() != "Doe" {
		t.Errorf("mutating clone affected original")
	}
	// Numbering fields must be copied verbatim.
	if cp.Start != root.Start || cp.End != root.End || cp.Ord != root.Ord {
		t.Errorf("clone numbering differs")
	}
}

func TestSerializeRoundTrip(t *testing.T) {
	root := mustParse(articleDoc)
	s := XMLString(root)
	again, err := ParseString(s)
	if err != nil {
		t.Fatalf("reparse: %v", err)
	}
	if !structurallyEqual(root, again) {
		t.Errorf("round trip changed structure:\n%s\nvs\n%s", s, XMLString(again))
	}
}

func TestSerializeEscaping(t *testing.T) {
	root := NewElement("a")
	root.SetAttr("q", `x<y&"z"`)
	root.AppendChild(NewText("1 < 2 & 3"))
	Number(root)
	s := XMLString(root)
	again, err := ParseString(s)
	if err != nil {
		t.Fatalf("reparse escaped: %v (%s)", err, s)
	}
	if got := again.AllText(); got != "1 < 2 & 3" {
		t.Errorf("text round trip = %q", got)
	}
	if got, _ := again.Attr("q"); got != `x<y&"z"` {
		t.Errorf("attr round trip = %q", got)
	}
}

func structurallyEqual(a, b *Node) bool {
	if a.Kind != b.Kind || a.Tag != b.Tag || a.Text != b.Text || len(a.Children) != len(b.Children) {
		return false
	}
	for i := range a.Children {
		if !structurallyEqual(a.Children[i], b.Children[i]) {
			return false
		}
	}
	return true
}

// randomTree builds a random tree with n element nodes and occasional text
// leaves, for property tests.
func randomTree(rng *rand.Rand, n int) *Node {
	root := NewElement("r")
	nodes := []*Node{root}
	for i := 1; i < n; i++ {
		parent := nodes[rng.Intn(len(nodes))]
		el := NewElement([]string{"a", "b", "c", "d"}[rng.Intn(4)])
		parent.AppendChild(el)
		nodes = append(nodes, el)
		if rng.Intn(3) == 0 {
			words := make([]string, 1+rng.Intn(4))
			for w := range words {
				words[w] = []string{"tix", "xml", "text", "query", "join"}[rng.Intn(5)]
			}
			el.AppendChild(NewText(strings.Join(words, " ")))
		}
	}
	Number(root)
	return root
}

func TestQuickNumberingInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	f := func(seed int64, sz uint8) bool {
		n := int(sz%60) + 1
		tree := randomTree(rand.New(rand.NewSource(seed)), n)
		return Validate(tree) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: rng}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickRegionEqualsPointerAncestry(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tree := randomTree(rng, 2+rng.Intn(40))
		nodes := Nodes(tree)
		for i := 0; i < 50; i++ {
			a := nodes[rng.Intn(len(nodes))]
			d := nodes[rng.Intn(len(nodes))]
			want := false
			for p := d.Parent; p != nil; p = p.Parent {
				if p == a {
					want = true
					break
				}
			}
			if a.IsAncestorOf(d) != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickSerializeParseIdempotent(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tree := randomTree(rng, 2+rng.Intn(30))
		again, err := ParseString(XMLString(tree))
		if err != nil {
			return false
		}
		return structurallyEqual(tree, again)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestParseCDataCommentsAndPI(t *testing.T) {
	doc := `<?xml version="1.0"?>
<a><!-- a comment --><b><![CDATA[raw <text> here]]></b><?pi target?></a>`
	root, err := ParseString(doc)
	if err != nil {
		t.Fatalf("ParseString: %v", err)
	}
	// Comments and processing instructions are dropped; CDATA becomes
	// character data.
	if got := root.FirstTag("b").AllText(); got != "raw <text> here" {
		t.Errorf("CDATA text = %q", got)
	}
	if root.Size() != 3 {
		t.Errorf("size = %d, want 3 (a, b, text)", root.Size())
	}
}

func TestParseEntities(t *testing.T) {
	root, err := ParseString(`<a>fish &amp; chips &lt;now&gt;</a>`)
	if err != nil {
		t.Fatal(err)
	}
	if got := root.AllText(); got != "fish & chips <now>" {
		t.Errorf("entities = %q", got)
	}
}

func TestParseWhitespaceOnlyTextDropped(t *testing.T) {
	root, err := ParseString("<a>\n  <b>x</b>\n  \t\n</a>")
	if err != nil {
		t.Fatal(err)
	}
	if root.Size() != 3 {
		t.Errorf("size = %d, want 3 (whitespace runs dropped)", root.Size())
	}
}

func TestDeepNesting(t *testing.T) {
	// 2,000 levels of nesting must parse, number and validate without
	// overflow of the uint16 level only guarding realistic depths.
	var sb strings.Builder
	depth := 2000
	for i := 0; i < depth; i++ {
		sb.WriteString("<d>")
	}
	sb.WriteString("leaf")
	for i := 0; i < depth; i++ {
		sb.WriteString("</d>")
	}
	root, err := ParseString(sb.String())
	if err != nil {
		t.Fatal(err)
	}
	if err := Validate(root); err != nil {
		t.Fatal(err)
	}
	maxLevel := uint16(0)
	root.Walk(func(n *Node) bool {
		if n.Level > maxLevel {
			maxLevel = n.Level
		}
		return true
	})
	if maxLevel != uint16(depth) {
		t.Errorf("max level = %d, want %d", maxLevel, depth)
	}
}

// TestXMLStringLinearInDepth: indentation is capped at maxIndentDepth
// levels, so a 100,000-deep chain serializes to a bounded number of bytes
// per element — at two spaces a level without a cap it would be 20 GB.
// Shallow levels keep two spaces each. The chain is built directly, as
// Parse stops at MaxDepth; a chain at that depth parses back to itself.
func TestXMLStringLinearInDepth(t *testing.T) {
	chain := func(depth int) *Node {
		root := NewElement("d")
		n := root
		for i := 1; i < depth; i++ {
			c := NewElement("d")
			n.AppendChild(c)
			n = c
		}
		n.AppendChild(NewText("leaf"))
		Number(root)
		return root
	}
	const depth = 100000
	s := XMLString(chain(depth))
	// Each element is an opening and a closing line, each padded by at
	// most 2·maxIndentDepth spaces; the leaf adds one more line.
	line := 2*maxIndentDepth + len("</d>\n")
	if limit := (2*depth + 1) * line; len(s) > limit {
		t.Fatalf("XMLString of a %d-deep chain is %d bytes, over %d", depth, len(s), limit)
	}
	if want := "<d>\n  <d>\n    <d>\n"; !strings.HasPrefix(s, want) {
		t.Errorf("output starts %q, want prefix %q", s[:len(want)], want)
	}
	if _, err := ParseString(s); !errors.Is(err, ErrTooDeep) {
		t.Fatalf("reparse of the %d-deep chain: err = %v, want ErrTooDeep", depth, err)
	}
	root := chain(MaxDepth)
	again, err := ParseString(XMLString(root))
	if err != nil {
		t.Fatalf("reparse at MaxDepth: %v", err)
	}
	if !structurallyEqual(root, again) {
		t.Error("round trip of the deep chain changed its structure")
	}
}

// TestParseDepthLimit: MaxDepth nested elements parse and one more is
// ErrTooDeep, and so are several top-level elements at MaxDepth, which the
// wrapper root would push one level past it.
func TestParseDepthLimit(t *testing.T) {
	nest := func(depth int) string {
		return strings.Repeat("<d>", depth) + "leaf" + strings.Repeat("</d>", depth)
	}
	if _, err := ParseString(nest(MaxDepth)); err != nil {
		t.Fatalf("%d levels: %v", MaxDepth, err)
	}
	if _, err := ParseString(nest(MaxDepth-1) + nest(MaxDepth-1)); err != nil {
		t.Fatalf("two roots of %d levels under the wrapper: %v", MaxDepth-1, err)
	}
	for _, src := range []string{nest(MaxDepth + 1), nest(MaxDepth) + "<e/>"} {
		if _, err := ParseString(src); !errors.Is(err, ErrTooDeep) {
			t.Errorf("%d bytes of nesting: err = %v, want ErrTooDeep", len(src), err)
		}
	}
}

// TestParseRejectsLostNames: a prefixed name whose local part is not a
// name on its own is ErrInvalidName, since the tree keeps only the local
// part; prefixed names whose local parts are names parse, and every
// accepted document's serialization parses back to the same tree.
func TestParseRejectsLostNames(t *testing.T) {
	for _, src := range []string{
		`<x:a A:0="" A00="">hi</x:a>`,
		`<a xmlns:1x="u"/>`,
		`<p:1a/>`,
		`<a><p:-b/></a>`,
	} {
		if _, err := ParseString(src); !errors.Is(err, ErrInvalidName) {
			t.Errorf("%s: err = %v, want ErrInvalidName", src, err)
		}
	}
	for _, src := range []string{
		`<x:a xmlns:x="u" y:b="1" A00="">hi</x:a>`,
		`<a xmlns="u"><b c:d="e">f</b></a>`,
		`<p:_a p:é="1"/>`,
	} {
		root, err := ParseString(src)
		if err != nil {
			t.Errorf("%s: %v", src, err)
			continue
		}
		again, err := ParseString(XMLString(root))
		if err != nil || XMLString(again) != XMLString(root) {
			t.Errorf("%s: serialization %q does not parse back (%v)", src, XMLString(root), err)
		}
	}
}

// TestParseJoinsSplitText: character data split by a comment, a
// processing instruction or a CDATA section is one text node, as the
// serialization writes it, so the serialization parses back to the same
// tree.
func TestParseJoinsSplitText(t *testing.T) {
	root, err := ParseString(`<a><b>alpha<!--c-->beta <?pi x?> gamma<![CDATA[ <d>]]></b></a>`)
	if err != nil {
		t.Fatal(err)
	}
	b := root.FirstTag("b")
	if len(b.Children) != 1 || b.Children[0].Text != "alphabeta  gamma <d>" {
		t.Fatalf("children of <b> = %v, want one text node", b.Children)
	}
	again, err := ParseString(XMLString(root))
	if err != nil || XMLString(again) != XMLString(root) {
		t.Fatalf("serialization %q does not parse back (%v)", XMLString(root), err)
	}
}

// failWriter accepts after bytes, then fails.
type failWriter struct{ after int }

func (f *failWriter) Write(p []byte) (int, error) {
	if len(p) > f.after {
		n := f.after
		f.after = 0
		return n, fmt.Errorf("disk full")
	}
	f.after -= len(p)
	return len(p), nil
}

func TestWriteXMLPropagatesWriterErrors(t *testing.T) {
	root := mustParse(articleDoc)
	// Fail at several points in the serialization; the error must always
	// surface, never be swallowed.
	for _, after := range []int{0, 1, 5, 20} {
		if err := WriteXML(&failWriter{after: after}, root, true); err == nil {
			t.Errorf("writer failing after %d bytes: error swallowed", after)
		}
	}
	// A writer with enough capacity succeeds.
	if err := WriteXML(&failWriter{after: 1 << 20}, root, false); err != nil {
		t.Errorf("healthy writer errored: %v", err)
	}
}

func TestOriginProvenance(t *testing.T) {
	root := mustParse(`<a><b>x</b></a>`)
	b := root.FirstTag("b")
	clone := &Node{Kind: b.Kind, Tag: b.Tag, Src: b}
	second := &Node{Kind: b.Kind, Tag: b.Tag, Src: clone}
	if b.Origin() != b {
		t.Errorf("original node's origin must be itself")
	}
	if clone.Origin() != b || second.Origin() != b {
		t.Errorf("provenance chain not followed")
	}
}

func TestWordCount(t *testing.T) {
	cases := []struct {
		in   string
		want uint32
	}{
		{"", 0},
		{"   ", 0},
		{"one", 1},
		{"one two", 2},
		{"  spaced   out words ", 3},
		{"tab\tand\nnewline", 3},
	}
	for _, c := range cases {
		if got := wordCount(c.in); got != c.want {
			t.Errorf("wordCount(%q) = %d, want %d", c.in, got, c.want)
		}
	}
}

func TestNodesAndByStart(t *testing.T) {
	root := mustParse(articleDoc)
	nodes := Nodes(root)
	if len(nodes) != root.Size() {
		t.Fatalf("Nodes len %d != Size %d", len(nodes), root.Size())
	}
	// Shuffle and re-sort.
	shuffled := append([]*Node(nil), nodes...)
	rng := rand.New(rand.NewSource(1))
	rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	ByStart(shuffled)
	for i := range nodes {
		if nodes[i] != shuffled[i] {
			t.Fatalf("ByStart does not restore document order at %d", i)
		}
	}
}
