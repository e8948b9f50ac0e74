package exec

import (
	"math"
	"sort"
	"testing"

	"repro/internal/fixture"
	"repro/internal/index"
	"repro/internal/scoring"
	"repro/internal/storage"
	"repro/internal/synth"
	"repro/internal/tokenize"
)

// buildFixtureIndex loads the paper's Figure 1 database.
func buildFixtureIndex(t testing.TB) *index.Index {
	t.Helper()
	s := storage.NewStore()
	if _, err := s.AddTree("articles.xml", mustParse(fixture.ArticlesXML)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.AddTree("reviews.xml", mustParse(fixture.ReviewsXML)); err != nil {
		t.Fatal(err)
	}
	return index.Build(s, tokenize.NewStemming())
}

// buildSynthIndex generates a small corpus with control terms.
func buildSynthIndex(t testing.TB, ctl map[string]int, seed int64) *index.Index {
	t.Helper()
	cfg := synth.DefaultConfig()
	cfg.Seed = seed
	cfg.ControlTerms = ctl
	c, err := synth.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s := storage.NewStore()
	if _, err := s.AddTree("corpus.xml", c.Root); err != nil {
		t.Fatal(err)
	}
	return index.Build(s, tokenize.New())
}

// key identifies a result element.
type key struct {
	doc storage.DocID
	ord int32
}

func asMap(t testing.TB, nodes []ScoredNode) map[key]float64 {
	t.Helper()
	m := make(map[key]float64, len(nodes))
	for _, n := range nodes {
		k := key{n.Doc, n.Ord}
		if _, dup := m[k]; dup {
			t.Fatalf("duplicate emission for %v", k)
		}
		m[k] = n.Score
	}
	return m
}

func sameResults(t *testing.T, name string, got, want map[key]float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%s: %d results, want %d", name, len(got), len(want))
	}
	for k, ws := range want {
		gs, ok := got[k]
		if !ok {
			t.Errorf("%s: missing result %v", name, k)
			continue
		}
		if math.Abs(gs-ws) > 1e-9 {
			t.Errorf("%s: score for %v = %v, want %v", name, k, gs, ws)
		}
	}
	for k := range got {
		if _, ok := want[k]; !ok {
			t.Errorf("%s: unexpected result %v", name, k)
		}
	}
}

// naiveSimple recomputes the simple term-join from first principles: for
// every element, count term occurrences in its subtree via the tokenizer.
func naiveSimple(idx *index.Index, terms []string, scorer Scorer) map[key]float64 {
	out := map[key]float64{}
	tok := idx.Tokenizer()
	for _, doc := range idx.Store().Docs() {
		acc := storage.NewAccessor(idx.Store())
		for _, ord := range doc.Elements() {
			text := acc.SubtreeText(doc.ID, ord)
			counts := make([]int, len(terms))
			any := false
			for i, term := range terms {
				counts[i] = tok.Count(text, term)
				if counts[i] > 0 {
					any = true
				}
			}
			if any {
				out[key{doc.ID, ord}] = scorer.Simple(counts)
			}
		}
	}
	return out
}

// naiveComplex recomputes the complex term-join from first principles
// using index postings for occurrence positions.
func naiveComplex(idx *index.Index, terms []string, scorer Scorer) map[key]float64 {
	out := map[key]float64{}
	norm := normalizeTerms(idx, terms)
	for _, doc := range idx.Store().Docs() {
		// All occurrences in this doc.
		var occs []scoring.Occ
		for ti, term := range norm {
			for _, p := range idx.List(term).Materialize() {
				if p.Doc == doc.ID {
					occs = append(occs, scoring.Occ{Term: ti, Pos: p.Pos, Node: p.Node})
				}
			}
		}
		sort.Slice(occs, func(i, j int) bool { return occs[i].Pos < occs[j].Pos })
		for _, ord := range doc.Elements() {
			rec := doc.Nodes[ord]
			var sub []scoring.Occ
			counts := make([]int, len(terms))
			for _, o := range occs {
				if o.Pos > rec.Start && o.Pos <= rec.End {
					sub = append(sub, o)
					counts[o.Term]++
				}
			}
			if len(sub) == 0 {
				continue
			}
			// Children with at least one occurrence.
			nz, total := 0, 0
			child := rec.FirstChild
			for child != storage.NoNode {
				crec := doc.Nodes[child]
				total++
				for _, o := range sub {
					if o.Pos >= crec.Start && o.Pos <= crec.End {
						nz++
						break
					}
				}
				child = crec.NextSibling
			}
			out[key{doc.ID, ord}] = scorer.Complex(counts, sub, nz, total)
		}
	}
	return out
}

func runAll(t *testing.T, idx *index.Index, q TermQuery) (tj, comp1, comp2, meet map[key]float64) {
	t.Helper()
	s := idx.Store()
	got, err := RunTermJoin(idx, q, ChildCountNavigate)
	if err != nil {
		t.Fatal(err)
	}
	tj = asMap(t, got)
	c1 := &Comp1{Index: idx, Acc: storage.NewAccessor(s), Query: q}
	r1, err := Collect(c1.Run)
	if err != nil {
		t.Fatal(err)
	}
	comp1 = asMap(t, r1)
	c2 := &Comp2{Index: idx, Acc: storage.NewAccessor(s), Query: q}
	r2, err := Collect(c2.Run)
	if err != nil {
		t.Fatal(err)
	}
	comp2 = asMap(t, r2)
	gm := &GenMeet{Index: idx, Acc: storage.NewAccessor(s), Query: q}
	rm, err := Collect(gm.Run)
	if err != nil {
		t.Fatal(err)
	}
	meet = asMap(t, rm)
	return
}

func TestTermJoinSimpleOnFixture(t *testing.T) {
	idx := buildFixtureIndex(t)
	q := TermQuery{
		Terms:  []string{"search", "retrieval"},
		Scorer: DefaultScorer{SimpleFn: scoring.SimpleScorer{Weights: []float64{0.8, 0.6}}},
	}
	got, err := RunTermJoin(idx, q, ChildCountNavigate)
	if err != nil {
		t.Fatal(err)
	}
	want := naiveSimple(idx, q.Terms, q.Scorer)
	sameResults(t, "TermJoin(simple)", asMap(t, got), want)
	if len(want) == 0 {
		t.Fatalf("empty workload — fixture broken")
	}
}

func TestBaselinesMatchTermJoinSimple(t *testing.T) {
	idx := buildFixtureIndex(t)
	q := TermQuery{
		Terms:  []string{"search", "engine", "internet"},
		Scorer: DefaultScorer{},
	}
	tj, c1, c2, gm := runAll(t, idx, q)
	want := naiveSimple(idx, q.Terms, q.Scorer)
	sameResults(t, "TermJoin", tj, want)
	sameResults(t, "Comp1", c1, want)
	sameResults(t, "Comp2", c2, want)
	sameResults(t, "GenMeet", gm, want)
}

func TestBaselinesMatchTermJoinComplex(t *testing.T) {
	idx := buildFixtureIndex(t)
	q := TermQuery{
		Terms:   []string{"search", "engine"},
		Complex: true,
		Scorer:  DefaultScorer{},
	}
	tj, c1, c2, gm := runAll(t, idx, q)
	want := naiveComplex(idx, q.Terms, q.Scorer)
	sameResults(t, "TermJoin(complex)", tj, want)
	sameResults(t, "Comp1(complex)", c1, want)
	sameResults(t, "Comp2(complex)", c2, want)
	sameResults(t, "GenMeet(complex)", gm, want)
}

func TestEnhancedTermJoinMatchesPlain(t *testing.T) {
	idx := buildFixtureIndex(t)
	q := TermQuery{
		Terms:   []string{"information", "retrieval"},
		Complex: true,
		Scorer:  DefaultScorer{},
	}
	plain, err := RunTermJoin(idx, q, ChildCountNavigate)
	if err != nil {
		t.Fatal(err)
	}
	enhanced, err := RunTermJoin(idx, q, ChildCountIndexed)
	if err != nil {
		t.Fatal(err)
	}
	sameResults(t, "Enhanced", asMap(t, enhanced), asMap(t, plain))
}

func TestEnhancedUsesFewerStoreReads(t *testing.T) {
	idx := buildSynthIndex(t, map[string]int{"ctla": 150, "ctlb": 150}, 5)
	q := TermQuery{Terms: []string{"ctla", "ctlb"}, Complex: true, Scorer: DefaultScorer{}}
	plain := &TermJoin{Index: idx, Acc: storage.NewAccessor(idx.Store()), Query: q, ChildCounts: ChildCountNavigate}
	if _, err := Collect(plain.Run); err != nil {
		t.Fatal(err)
	}
	enh := &TermJoin{Index: idx, Acc: storage.NewAccessor(idx.Store()), Query: q, ChildCounts: ChildCountIndexed}
	if _, err := Collect(enh.Run); err != nil {
		t.Fatal(err)
	}
	if enh.Acc.Stats.NodeReads >= plain.Acc.Stats.NodeReads {
		t.Errorf("enhanced should read less: %d vs %d", enh.Acc.Stats.NodeReads, plain.Acc.Stats.NodeReads)
	}
	if plain.Acc.Stats.NavSteps == 0 {
		t.Errorf("plain TermJoin should navigate for child counts")
	}
	if enh.Acc.Stats.NavSteps != 0 {
		t.Errorf("enhanced TermJoin must not navigate (nav=%d)", enh.Acc.Stats.NavSteps)
	}
}

func TestAllMethodsAgreeOnSynthCorpus(t *testing.T) {
	for _, seed := range []int64{11, 12, 13} {
		idx := buildSynthIndex(t, map[string]int{"ctla": 40, "ctlb": 25, "ctlc": 10}, seed)
		for _, complex := range []bool{false, true} {
			q := TermQuery{Terms: []string{"ctla", "ctlb", "ctlc"}, Complex: complex, Scorer: DefaultScorer{}}
			tj, c1, c2, gm := runAll(t, idx, q)
			var want map[key]float64
			if complex {
				want = naiveComplex(idx, q.Terms, q.Scorer)
			} else {
				want = naiveSimple(idx, q.Terms, q.Scorer)
			}
			sameResults(t, "TermJoin", tj, want)
			sameResults(t, "Comp1", c1, want)
			sameResults(t, "Comp2", c2, want)
			sameResults(t, "GenMeet", gm, want)
			if len(tj) == 0 {
				t.Fatalf("seed %d complex=%v: no results", seed, complex)
			}
		}
	}
}

func TestTermJoinMultiDocument(t *testing.T) {
	s := storage.NewStore()
	for _, d := range []struct{ name, src string }{
		{"a.xml", `<a><p>tix rocks</p></a>`},
		{"b.xml", `<b><q><p>tix tix</p></q></b>`},
		{"c.xml", `<c>no match here</c>`},
	} {
		if _, err := s.AddTree(d.name, mustParse(d.src)); err != nil {
			t.Fatal(err)
		}
	}
	idx := index.Build(s, tokenize.New())
	q := TermQuery{Terms: []string{"tix"}, Scorer: DefaultScorer{}}
	got, err := RunTermJoin(idx, q, ChildCountNavigate)
	if err != nil {
		t.Fatal(err)
	}
	want := naiveSimple(idx, q.Terms, q.Scorer)
	sameResults(t, "multidoc", asMap(t, got), want)
	// Results span two documents: a (2 elements) and b (3 elements).
	if len(got) != 5 {
		t.Errorf("results = %d, want 5", len(got))
	}
}

func TestTermJoinErrors(t *testing.T) {
	idx := buildFixtureIndex(t)
	if _, err := RunTermJoin(idx, TermQuery{Scorer: DefaultScorer{}}, ChildCountNavigate); err == nil {
		t.Errorf("no terms should error")
	}
	if _, err := RunTermJoin(idx, TermQuery{Terms: []string{"x"}}, ChildCountNavigate); err == nil {
		t.Errorf("no scorer should error")
	}
	c1 := &Comp1{Index: idx, Acc: storage.NewAccessor(idx.Store()), Query: TermQuery{}}
	if err := c1.Run(func(ScoredNode) {}); err == nil {
		t.Errorf("Comp1 without terms should error")
	}
	c2 := &Comp2{Index: idx, Acc: storage.NewAccessor(idx.Store()), Query: TermQuery{}}
	if err := c2.Run(func(ScoredNode) {}); err == nil {
		t.Errorf("Comp2 without terms should error")
	}
	gm := &GenMeet{Index: idx, Acc: storage.NewAccessor(idx.Store()), Query: TermQuery{}}
	if err := gm.Run(func(ScoredNode) {}); err == nil {
		t.Errorf("GenMeet without terms should error")
	}
}

func TestTermJoinRejectsMismatchedPostingLists(t *testing.T) {
	idx := buildFixtureIndex(t)
	q := TermQuery{
		Terms:  []string{"a", "b"},
		Lists:  []index.List{{}}, // 1 list for 2 terms
		Scorer: DefaultScorer{},
	}
	if _, err := RunTermJoin(idx, q, ChildCountNavigate); err == nil {
		t.Errorf("mismatched posting lists accepted")
	}
	c1 := &Comp1{Index: idx, Acc: storage.NewAccessor(idx.Store()), Query: q}
	if err := c1.Run(func(ScoredNode) {}); err == nil {
		t.Errorf("Comp1 accepted mismatched posting lists")
	}
}

func TestTermJoinUnknownTerm(t *testing.T) {
	idx := buildFixtureIndex(t)
	q := TermQuery{Terms: []string{"zzzznotthere"}, Scorer: DefaultScorer{}}
	got, err := RunTermJoin(idx, q, ChildCountNavigate)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Errorf("unknown term produced %d results", len(got))
	}
	// Mixed known/unknown still works.
	q = TermQuery{Terms: []string{"zzzznotthere", "search"}, Scorer: DefaultScorer{}}
	got, err = RunTermJoin(idx, q, ChildCountNavigate)
	if err != nil {
		t.Fatal(err)
	}
	want := naiveSimple(idx, q.Terms, q.Scorer)
	sameResults(t, "mixed", asMap(t, got), want)
}

func TestTermJoinEmitsPostorderPerDoc(t *testing.T) {
	idx := buildFixtureIndex(t)
	q := TermQuery{Terms: []string{"search"}, Scorer: DefaultScorer{}}
	got, err := RunTermJoin(idx, q, ChildCountNavigate)
	if err != nil {
		t.Fatal(err)
	}
	// Within a document, an element must be emitted after all emitted
	// elements in its subtree (pop order).
	doc := idx.Store().DocByName("articles.xml")
	var lastEnd uint32
	for _, n := range got {
		if n.Doc != doc.ID {
			continue
		}
		end := doc.Nodes[n.Ord].End
		if end < lastEnd {
			t.Fatalf("emission not in pop order: end %d after %d", end, lastEnd)
		}
		lastEnd = end
	}
}
