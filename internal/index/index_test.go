package index

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/storage"
	"repro/internal/tokenize"
	"repro/internal/xmltree"
)

func buildIndex(t testing.TB, docs map[string]string) (*storage.Store, *Index) {
	t.Helper()
	s := storage.NewStore()
	for name, src := range docs {
		if _, err := s.AddTree(name, mustParse(src)); err != nil {
			t.Fatalf("AddTree(%s): %v", name, err)
		}
	}
	return s, Build(s, tokenize.New())
}

func TestBuildCountsOccurrences(t *testing.T) {
	_, idx := buildIndex(t, map[string]string{
		"a.xml": `<a><b>search engine</b><c>search engine search</c></a>`,
	})
	if got := idx.TermFreq("search"); got != 3 {
		t.Errorf("TermFreq(search) = %d, want 3", got)
	}
	if got := idx.TermFreq("engine"); got != 2 {
		t.Errorf("TermFreq(engine) = %d, want 2", got)
	}
	if got := idx.TermFreq("missing"); got != 0 {
		t.Errorf("TermFreq(missing) = %d, want 0", got)
	}
	if got := idx.NodeFreq("search"); got != 2 {
		t.Errorf("NodeFreq(search) = %d, want 2", got)
	}
	if idx.TotalOccurrences() != 5 {
		t.Errorf("TotalOccurrences = %d, want 5", idx.TotalOccurrences())
	}
	if idx.NumTerms() != 2 {
		t.Errorf("NumTerms = %d, want 2", idx.NumTerms())
	}
}

func TestPostingsOrderAndPositions(t *testing.T) {
	s, idx := buildIndex(t, map[string]string{
		"a.xml": `<a><b>one two</b><c>two one two</c></a>`,
	})
	doc := s.DocByName("a.xml")
	ps := idx.List("two").Materialize()
	if len(ps) != 3 {
		t.Fatalf("postings = %d, want 3", len(ps))
	}
	for i := 1; i < len(ps); i++ {
		if !ps[i-1].Less(ps[i]) {
			t.Errorf("postings out of order at %d", i)
		}
	}
	// Positions must sit inside the containing text node's region and be
	// consistent with the recorded offset.
	for _, p := range ps {
		rec := doc.Nodes[p.Node]
		if rec.Kind != xmltree.Text {
			t.Fatalf("posting node %d is not text", p.Node)
		}
		if p.Pos != rec.Start+p.Offset {
			t.Errorf("pos %d != node start %d + offset %d", p.Pos, rec.Start, p.Offset)
		}
		if p.Pos < rec.Start || p.Pos > rec.End {
			t.Errorf("pos %d outside text region [%d,%d]", p.Pos, rec.Start, rec.End)
		}
	}
}

func TestPositionsContainedInAncestors(t *testing.T) {
	s, idx := buildIndex(t, map[string]string{
		"a.xml": `<article><chapter><p>tix is a bulk algebra</p></chapter><p>algebra again</p></article>`,
	})
	doc := s.DocByName("a.xml")
	for _, p := range idx.List("algebra").Materialize() {
		// Every ancestor element region must contain the position.
		acc := storage.NewAccessor(s)
		for _, anc := range acc.Ancestors(doc.ID, p.Node) {
			rec := doc.Nodes[anc]
			if p.Pos <= rec.Start || p.Pos > rec.End {
				t.Errorf("occurrence pos %d not inside ancestor region [%d,%d]", p.Pos, rec.Start, rec.End)
			}
		}
	}
}

func TestMultiDocOrdering(t *testing.T) {
	_, idx := buildIndex(t, map[string]string{
		"a.xml": `<a>shared term</a>`,
		"b.xml": `<b>shared again shared</b>`,
	})
	ps := idx.List("shared").Materialize()
	if len(ps) != 3 {
		t.Fatalf("postings = %d, want 3", len(ps))
	}
	for i := 1; i < len(ps); i++ {
		if !ps[i-1].Less(ps[i]) {
			t.Errorf("cross-doc postings out of order")
		}
	}
}

func TestIDFMonotonic(t *testing.T) {
	_, idx := buildIndex(t, map[string]string{
		"a.xml": `<a><p>rare</p><p>common x</p><p>common y</p><p>common z</p></a>`,
	})
	if idx.IDF("rare") <= idx.IDF("common") {
		t.Errorf("IDF(rare)=%f should exceed IDF(common)=%f", idx.IDF("rare"), idx.IDF("common"))
	}
	if idx.IDF("nonexistent") < idx.IDF("rare") {
		t.Errorf("unknown terms should get maximal IDF")
	}
}

func TestTermsByFreqAndNearFreq(t *testing.T) {
	_, idx := buildIndex(t, map[string]string{
		"a.xml": `<a>x x x y y z</a>`,
	})
	terms := idx.TermsByFreq()
	if len(terms) != 3 || terms[0] != "x" || terms[1] != "y" || terms[2] != "z" {
		t.Fatalf("TermsByFreq = %v", terms)
	}
	got, err := idx.TermNearFreq(2, nil)
	if err != nil || got != "y" {
		t.Errorf("TermNearFreq(2) = %q, %v", got, err)
	}
	got, err = idx.TermNearFreq(2, map[string]bool{"y": true})
	if err != nil {
		t.Fatal(err)
	}
	if got != "x" && got != "z" {
		t.Errorf("TermNearFreq(2, excl y) = %q", got)
	}
	empty := Build(storage.NewStore(), tokenize.New())
	if _, err := empty.TermNearFreq(1, nil); err == nil {
		t.Errorf("empty index should error")
	}
}

func TestCursor(t *testing.T) {
	_, idx := buildIndex(t, map[string]string{
		"a.xml": `<a>w a w b w c w</a>`,
	})
	c := NewRawList(idx.List("w").Materialize()).Cursor()
	var seen []uint32
	for c.Valid() {
		seen = append(seen, c.Cur().Pos)
		c.Advance()
	}
	if len(seen) != 4 {
		t.Fatalf("iterated %d", len(seen))
	}
	// SeekPos lands on the first posting at or after the target.
	c2 := NewRawList(idx.List("w").Materialize()).Cursor()
	c2.SeekPos(0, seen[2])
	if !c2.Valid() || c2.Cur().Pos != seen[2] {
		t.Errorf("SeekPos exact failed")
	}
	c2.SeekPos(0, seen[3]+100)
	if c2.Valid() {
		t.Errorf("SeekPos past end should invalidate")
	}
}

func TestCursorSeekAcrossDocuments(t *testing.T) {
	_, idx := buildIndex(t, map[string]string{
		"a.xml": `<a>w w w</a>`,
		"b.xml": `<b>w w</b>`,
		"c.xml": `<c>w</c>`,
	})
	ps := idx.List("w").Materialize()
	if len(ps) != 6 {
		t.Fatalf("postings = %d", len(ps))
	}
	c := NewRawList(ps).Cursor()
	// Seek straight into the second document.
	c.SeekPos(1, 0)
	if !c.Valid() || c.Cur().Doc != 1 {
		t.Fatalf("seek to doc 1 landed on %+v", c.Cur())
	}
	// Seek within the second document past its last posting rolls into
	// the third.
	c.SeekPos(1, ps[len(ps)-1].Pos+100)
	if !c.Valid() || c.Cur().Doc != 2 {
		t.Fatalf("roll-over seek landed on %+v", c.Cur())
	}
	// Seek past everything invalidates.
	c.SeekPos(5, 0)
	if c.Valid() {
		t.Errorf("seek past end still valid")
	}
}

func TestRestoreValidation(t *testing.T) {
	s, idx := buildIndex(t, map[string]string{"a.xml": `<a>x y x</a>`})
	// A valid restore reproduces the statistics.
	postings := map[string][]Posting{
		"x": append([]Posting(nil), idx.List("x").Materialize()...),
		"y": append([]Posting(nil), idx.List("y").Materialize()...),
	}
	r, err := Restore(s, idx.Tokenizer(), postings)
	if err != nil {
		t.Fatal(err)
	}
	if r.TermFreq("x") != 2 || r.NodeFreq("x") != 1 || r.TotalOccurrences() != 3 {
		t.Errorf("restored stats wrong: %d %d %d", r.TermFreq("x"), r.NodeFreq("x"), r.TotalOccurrences())
	}
	// Out-of-order postings are rejected.
	bad := map[string][]Posting{
		"x": {{Doc: 0, Pos: 9}, {Doc: 0, Pos: 1}},
	}
	if _, err := Restore(s, idx.Tokenizer(), bad); err == nil {
		t.Errorf("out-of-order restore accepted")
	}
}

func TestQuickIndexMatchesNaiveCount(t *testing.T) {
	words := []string{"alpha", "beta", "gamma", "delta"}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		root := xmltree.NewElement("r")
		want := map[string]int{}
		for i := 0; i < 1+rng.Intn(8); i++ {
			el := xmltree.NewElement("p")
			var text string
			for j := 0; j < rng.Intn(6); j++ {
				w := words[rng.Intn(len(words))]
				want[w]++
				if text != "" {
					text += " "
				}
				text += w
			}
			if text != "" {
				el.AppendChild(xmltree.NewText(text))
			}
			root.AppendChild(el)
		}
		xmltree.Number(root)
		s := storage.NewStore()
		if _, err := s.AddTree("t", root); err != nil {
			return false
		}
		idx := Build(s, tokenize.New())
		for _, w := range words {
			if idx.TermFreq(w) != want[w] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}
