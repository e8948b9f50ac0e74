package algebra

import (
	"math"
	"testing"

	"repro/internal/fixture"
	"repro/internal/pattern"
	"repro/internal/scoring"
	"repro/internal/tokenize"
	"repro/internal/xmltree"
)

// tok reproduces the paper's matching behaviour ("search engines" counts as
// an occurrence of "search engine").
var tok = tokenize.NewStemming()

// query2Pattern is the scored pattern tree of Figure 3 (T and F), with $4
// restricted to elements as the XQuery descendant-or-self::* step implies.
func query2Pattern() *pattern.Pattern {
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
	return p
}

// query2Scores is the S component of Figure 3: $4 is a primary IR-node
// scored by ScoreFoo; $1 is a secondary IR-node with $1.score = $4.score.
func query2Scores() *ScoreSet {
	return &ScoreSet{
		Primary: map[int]NodeScorer{
			4: func(n *xmltree.Node) float64 {
				return scoring.ScoreFoo(tok, n, fixture.PrimaryPhrases, fixture.SecondaryPhrases)
			},
		},
		Secondary: map[int]ScoreExpr{1: VarScore(4)},
	}
}

func findByOrd(t *ScoredTree, tag string, i int) *xmltree.Node {
	nodes := t.Root.FindTag(tag)
	if i < len(nodes) {
		return nodes[i]
	}
	return nil
}

func approx(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestSelectQuery2ReproducesFigure5(t *testing.T) {
	articles := mustParse(fixture.ArticlesXML)
	c := FromXML(articles)
	out := Select(c, query2Pattern(), query2Scores())

	// One witness per element of the article ($4 over elements).
	elems := articles.FindAll(func(n *xmltree.Node) bool { return n.Kind == xmltree.Element })
	if len(out) != len(elems) {
		t.Fatalf("witnesses = %d, want %d", len(out), len(elems))
	}

	ps := fixture.Paragraphs(articles)
	sec16 := fixture.ExamplesSection(articles)
	ch10 := fixture.ThirdChapter(articles)

	// Index witnesses by the source Ord of their $4 binding.
	byOrd := map[int32]*ScoredTree{}
	for _, w := range out {
		n4 := w.NodesOfVar(4)[0]
		byOrd[n4.Ord] = w
	}

	cases := []struct {
		name string
		ord  int32
		want float64
	}{
		{"p#a18", ps[0].Ord, 0.8},      // Fig. 5(a)
		{"p#a19", ps[1].Ord, 1.4},      // Fig. 6 scores
		{"p#a20", ps[2].Ord, 1.4},      //
		{"sec#a16", sec16.Ord, 3.6},    // Fig. 5(b)
		{"ch#a10", ch10.Ord, 5.0},      // Fig. 6/8
		{"article", articles.Ord, 5.6}, // Fig. 5(c)
	}
	for _, cse := range cases {
		w := byOrd[cse.ord]
		if w == nil {
			t.Fatalf("%s: no witness", cse.name)
		}
		n4 := w.NodesOfVar(4)[0]
		got, ok := w.Score(n4)
		if !ok || !approx(got, cse.want) {
			t.Errorf("%s: $4 score = %v (%v), want %v", cse.name, got, ok, cse.want)
		}
		// Secondary: the witness root (article) carries $4's score.
		if rs := w.RootScore(); !approx(rs, cse.want) {
			t.Errorf("%s: root score = %v, want %v", cse.name, rs, cse.want)
		}
		// Witness structure: root is the article, containing author→sname.
		if w.Root.Tag != "article" {
			t.Errorf("%s: witness root = %s", cse.name, w.Root.Tag)
		}
		if w.Root.FirstTag("sname") == nil {
			t.Errorf("%s: witness lost sname", cse.name)
		}
	}

	// Fig. 5(a) structure check: article → {author→sname, p}; chapter and
	// section are elided because they are not bound.
	w := byOrd[ps[0].Ord]
	if len(w.Root.Children) != 2 {
		t.Errorf("witness(a18) children = %d, want 2 (author, p)", len(w.Root.Children))
	}
	if w.Root.FirstTag("chapter") != nil || w.Root.FirstTag("section") != nil {
		t.Errorf("witness(a18) must elide unbound interior nodes")
	}
}

func TestProjectQuery2ReproducesFigure6(t *testing.T) {
	articles := mustParse(fixture.ArticlesXML)
	out := Project(FromXML(articles), query2Pattern(), query2Scores(),
		[]int{1, 3, 4}, ProjectOptions{DropZeroIR: true})
	if len(out) != 1 {
		t.Fatalf("projection output = %d trees, want 1", len(out))
	}
	pt := out[0]

	// Root is the article with the secondary score 5.6 (the highest $4
	// score it can achieve).
	if pt.Root.Tag != "article" {
		t.Fatalf("root = %s", pt.Root.Tag)
	}
	if !approx(pt.RootScore(), 5.6) {
		t.Errorf("root score = %v, want 5.6", pt.RootScore())
	}

	// Exactly the 12 nodes of Fig. 6.
	count := 0
	pt.Root.Walk(func(*xmltree.Node) bool { count++; return true })
	if count != 12 {
		t.Errorf("projected tree size = %d, want 12\n%s", count, pt)
	}

	// Scores per Fig. 6.
	checks := []struct {
		tag  string
		idx  int
		want float64
	}{
		{"article-title", 0, 0.6},
		{"chapter", 0, 5.0},
		{"section", 0, 0.8},
		{"section", 1, 0.6},
		{"section", 2, 3.6},
		{"section-title", 0, 0.8},
		{"section-title", 1, 0.6},
		{"p", 0, 0.8},
		{"p", 1, 1.4},
		{"p", 2, 1.4},
	}
	for _, c := range checks {
		n := findByOrd(pt, c.tag, c.idx)
		if n == nil {
			t.Fatalf("%s[%d] missing from projection\n%s", c.tag, c.idx, pt)
		}
		got, ok := pt.Score(n)
		if !ok || !approx(got, c.want) {
			t.Errorf("%s[%d] score = %v (%v), want %v", c.tag, c.idx, got, ok, c.want)
		}
	}

	// sname retained without a score ($3 is not an IR-node); author not in
	// PL and hence dropped, so sname hangs directly off the article.
	sname := pt.Root.FirstTag("sname")
	if sname == nil {
		t.Fatalf("sname missing")
	}
	if _, ok := pt.Score(sname); ok {
		t.Errorf("sname must not carry a score")
	}
	if sname.Parent != pt.Root {
		t.Errorf("sname should collapse onto article, parent = %v", sname.Parent)
	}
	if pt.Root.FirstTag("author") != nil {
		t.Errorf("author must be projected away")
	}
	// Zero-scored elements (e.g. the first two chapters) are dropped.
	if got := len(pt.Root.FindTag("chapter")); got != 1 {
		t.Errorf("chapters in projection = %d, want 1", got)
	}
}

func TestPickReproducesFigure8(t *testing.T) {
	articles := mustParse(fixture.ArticlesXML)
	projected := Project(FromXML(articles), query2Pattern(), query2Scores(),
		[]int{1, 3, 4}, ProjectOptions{DropZeroIR: true})
	pt := projected[0]

	picked := PickedNodes(pt, DefaultCriterion(0.8))
	var tags []string
	for _, n := range picked {
		tags = append(tags, n.Tag)
	}
	// Picked set: chapter #a10, section-title #a13, p #a18, #a19, #a20.
	want := []string{"chapter", "section-title", "p", "p", "p"}
	if len(tags) != len(want) {
		t.Fatalf("picked = %v, want %v", tags, want)
	}
	for i := range want {
		if tags[i] != want[i] {
			t.Fatalf("picked = %v, want %v", tags, want)
		}
	}

	out := Pick(projected, DefaultCriterion(0.8), query2Scores())
	rt := out[0]
	// Structure of Fig. 8: article root with sname and the chapter; the
	// section-title and paragraphs hoist under the chapter; sections #a12,
	// #a14, #a16 and article-title #a2 are gone.
	if rt.Root.Tag != "article" {
		t.Fatalf("root = %s", rt.Root.Tag)
	}
	if rt.Root.FirstTag("section") != nil {
		t.Errorf("sections must be eliminated\n%s", rt)
	}
	if rt.Root.FirstTag("article-title") != nil {
		t.Errorf("article-title must be eliminated (score 0.6 < 0.8)\n%s", rt)
	}
	ch := rt.Root.FirstTag("chapter")
	if ch == nil {
		t.Fatalf("chapter missing\n%s", rt)
	}
	if got := len(ch.FindTag("p")); got != 3 {
		t.Errorf("paragraphs under chapter = %d, want 3", got)
	}
	if got := len(ch.FindTag("section-title")); got != 1 {
		t.Errorf("section-titles under chapter = %d, want 1", got)
	}
	if rt.Root.FirstTag("sname") == nil {
		t.Errorf("sname (non-IR content) must remain")
	}
	// Rescoring: with the article's own 5.6 match pruned, the root score
	// becomes the best remaining $4 score, 5.0 (Fig. 8).
	if !approx(rt.RootScore(), 5.0) {
		t.Errorf("root score after pick = %v, want 5.0", rt.RootScore())
	}
	if s, _ := rt.Score(ch); !approx(s, 5.0) {
		t.Errorf("chapter score = %v, want 5.0", s)
	}
}

// TestExample31Pipeline follows Example 3.1: projection, pick, selection,
// threshold — the top result is the chapter #a10.
func TestExample31Pipeline(t *testing.T) {
	articles := mustParse(fixture.ArticlesXML)
	projected := Project(FromXML(articles), query2Pattern(), query2Scores(),
		[]int{1, 3, 4}, ProjectOptions{DropZeroIR: true})
	pickedC := Pick(projected, DefaultCriterion(0.8), query2Scores())

	// Selection over the picked tree: one result per remaining primary
	// IR-node. Use a pattern binding $4 to any scored element under the
	// root.
	sel := pattern.NewPattern(1)
	sel.Root.Child(4, pattern.ADStar)
	selFormula := pattern.Conj(pattern.TagEq(1, "article"), pattern.IsElement(4))
	sel.Formula = selFormula
	scores := &ScoreSet{
		Primary: map[int]NodeScorer{4: func(n *xmltree.Node) float64 {
			return scoring.ScoreFoo(tok, n, fixture.PrimaryPhrases, fixture.SecondaryPhrases)
		}},
		Secondary: map[int]ScoreExpr{1: VarScore(4)},
	}
	// Rescore from original content is impossible on the pruned tree (text
	// was projected away), so score by looking up the pick output's scores:
	// bind and reuse recorded scores.
	pt := pickedC[0]
	results := Select(pickedC, sel, &ScoreSet{
		Primary: map[int]NodeScorer{4: func(n *xmltree.Node) float64 {
			// Scores survive on the pick output's nodes.
			for sn, s := range pt.Scores {
				if sn.Ord == n.Ord {
					return s
				}
			}
			return 0
		}},
		Secondary: scores.Secondary,
	})
	// Five primary IR-nodes remain (chapter, section-title, 3 paragraphs)
	// plus the article root itself (rescored to 5.0 but still an element
	// match for $4).
	top := TopTrees(results, 1)
	if len(top) != 1 {
		t.Fatalf("no top result")
	}
	n4 := top[0].NodesOfVar(4)[0]
	if n4.Tag != "chapter" && n4.Tag != "article" {
		t.Errorf("top result = %s[%f], want the chapter (or its equal-scored article root)", n4.Tag, top[0].RootScore())
	}
	if !approx(top[0].RootScore(), 5.0) {
		t.Errorf("top score = %f, want 5.0", top[0].RootScore())
	}
}

// TestJoinReproducesFigure7 runs Query 3's join: articles × reviews with a
// title-similarity join score and ScoreBar root scoring.
func TestJoinReproducesFigure7(t *testing.T) {
	articles := mustParse(fixture.ArticlesXML)
	reviews := mustParse(fixture.ReviewsXML)

	p := pattern.NewPattern(1)
	art := p.Root.Child(2, pattern.PC)
	art.Child(3, pattern.PC)
	au := art.Child(4, pattern.PC)
	au.Child(5, pattern.PC)
	art.Child(6, pattern.ADStar)
	rev := p.Root.Child(7, pattern.AD)
	rev.Child(8, pattern.PC)
	p.Formula = pattern.Conj(
		pattern.TagEq(1, ProdRootTag),
		pattern.TagEq(2, "article"),
		pattern.TagEq(3, "article-title"),
		pattern.TagEq(4, "author"),
		pattern.TagEq(5, "sname"),
		pattern.ContentEq(5, "Doe"),
		pattern.IsElement(6),
		pattern.TagEq(7, "review"),
		pattern.TagEq(8, "title"),
	)
	scores := &ScoreSet{
		Primary: map[int]NodeScorer{
			6: func(n *xmltree.Node) float64 {
				return scoring.ScoreFoo(tok, n, fixture.PrimaryPhrases, fixture.SecondaryPhrases)
			},
		},
		Join: map[string]JoinScorer{
			"joinScore": func(b pattern.Binding) float64 {
				return scoring.ScoreSim(tok, b[3], b[8])
			},
		},
		Secondary: map[int]ScoreExpr{
			2: VarScore(6),
			1: func(e ScoreEnv) float64 { return scoring.ScoreBar(e.Named["joinScore"], e.Var[6]) },
		},
	}
	out := Join(FromXML(articles), FromXML(reviews), p, scores)
	if len(out) == 0 {
		t.Fatalf("join produced nothing")
	}

	// Find the Fig. 7 result: $6 = p#a18 (score 0.8) with review id=1
	// (identical title, ScoreSim = 2) → root 2.8.
	found := false
	for _, w := range out {
		n6 := w.NodesOfVar(6)[0]
		n7 := w.NodesOfVar(7)[0]
		id, _ := n7.Attr("id")
		if n6.Tag == "p" && id == "1" {
			if s, _ := w.Score(n6); approx(s, 0.8) {
				if !approx(w.RootScore(), 2.8) {
					t.Errorf("Fig.7 root score = %v, want 2.8", w.RootScore())
				}
				if w.Root.Tag != ProdRootTag {
					t.Errorf("root tag = %s", w.Root.Tag)
				}
				found = true
				break
			}
		}
	}
	if !found {
		t.Errorf("Fig. 7 witness (p#a18 × review 1) not found among %d results", len(out))
	}

	// Review 2 shares one (stemmed) title word → joinScore 1; paired with
	// p#a18 the root scores 1.8.
	for _, w := range out {
		n6 := w.NodesOfVar(6)[0]
		n7 := w.NodesOfVar(7)[0]
		id, _ := n7.Attr("id")
		if n6.Tag == "p" && id == "2" {
			if s, _ := w.Score(n6); approx(s, 0.8) {
				if !approx(w.RootScore(), 1.8) {
					t.Errorf("review-2 root score = %v, want 1.8", w.RootScore())
				}
			}
		}
	}
}

// TestQuery3Integration runs the similarity join of Query 3 as an algebra
// composition: articles with relevant components joined to reviews with
// similar titles. The scored pattern tree is Fig. 4's — ScoreFoo on the
// components, ScoreSim on the titles, ScoreBar at the root — and the
// Threshold simScore > 1 of Fig. 10 keeps pairs whose similarity is
// above MinSim = 1.
func TestQuery3Integration(t *testing.T) {
	p := pattern.NewPattern(1)
	l := p.Root.Child(2, pattern.AD)
	l.Child(3, pattern.PC)
	l.Child(6, pattern.ADStar)
	r := p.Root.Child(7, pattern.AD)
	r.Child(8, pattern.PC)
	p.Formula = pattern.Conj(
		pattern.TagEq(1, ProdRootTag),
		pattern.TagEq(2, "article"),
		pattern.TagEq(3, "article-title"),
		pattern.IsElement(6),
		pattern.TagEq(7, "review"),
		pattern.TagEq(8, "title"),
	)
	scores := &ScoreSet{
		Primary: map[int]NodeScorer{
			6: func(n *xmltree.Node) float64 {
				return scoring.ScoreFoo(tok, n, fixture.PrimaryPhrases, fixture.SecondaryPhrases)
			},
		},
		Join: map[string]JoinScorer{
			"simScore": func(b pattern.Binding) float64 {
				return scoring.ScoreSim(tok, b[3], b[8])
			},
		},
		Secondary: map[int]ScoreExpr{
			2: VarScore(6),
			1: func(e ScoreEnv) float64 { return scoring.ScoreBar(e.Named["simScore"], e.Var[6]) },
		},
	}
	const minSim = 1
	type joined struct {
		score, sim       float64
		component, right *xmltree.Node
	}
	var results []joined
	joinedTrees := Join(FromXML(mustParse(fixture.ArticlesXML)), FromXML(mustParse(fixture.ReviewsXML)), p, scores)
	for _, w := range joinedTrees.SortByRootScore() {
		comp := w.NodesOfVar(6)[0]
		compScore, _ := w.Score(comp)
		sim := 0.0
		if compScore > 0 {
			sim = w.RootScore() - compScore
		}
		if sim <= minSim || w.RootScore() <= 0 {
			continue
		}
		results = append(results, joined{w.RootScore(), sim, comp.Origin(), w.NodesOfVar(7)[0].Origin()})
	}
	if len(results) == 0 {
		t.Fatalf("no join results")
	}
	// Best result: the whole article (component score 5.6) with review 1
	// (identical title, sim 2) → 7.6.
	best := results[0]
	if !approx(best.score, 7.6) || !approx(best.sim, 2) {
		t.Errorf("best = %+v, want score 7.6 sim 2", best)
	}
	if best.right.FirstTag("title") == nil {
		t.Errorf("right side lost title")
	}
	if id, _ := best.right.Attr("id"); id != "1" {
		t.Errorf("best review id = %s, want 1", id)
	}
	// All results obey MinSim and are sorted.
	for i, r := range results {
		if r.sim <= minSim {
			t.Errorf("result %d violates MinSim: %+v", i, r)
		}
		if i > 0 && r.score > results[i-1].score {
			t.Errorf("not sorted at %d", i)
		}
	}
	// The Fig. 7 witness — paragraph #a18 with review 1 — appears with
	// combined score 2.8.
	found := false
	for _, r := range results {
		if r.component.Tag == "p" && approx(r.score, 2.8) {
			found = true
		}
	}
	if !found {
		t.Errorf("Fig. 7 result (p, 2.8) missing")
	}
}

func TestProductShape(t *testing.T) {
	a := FromXML(mustParse(`<a><x>1</x></a>`), mustParse(`<a><x>2</x></a>`))
	b := FromXML(mustParse(`<b/>`))
	out := Product(a, b)
	if len(out) != 2 {
		t.Fatalf("product size = %d, want 2", len(out))
	}
	for _, tr := range out {
		if tr.Root.Tag != ProdRootTag || len(tr.Root.Children) != 2 {
			t.Errorf("bad product tree: %s", tr)
		}
		if err := xmltree.Validate(tr.Root); err != nil {
			t.Errorf("product tree not renumbered: %v", err)
		}
	}
	// Deep copies: mutating an output must not affect inputs.
	out[0].Root.Children[0].FirstTag("x").Children[0].Text = "mutated"
	if a[0].Root.FirstTag("x").AllText() != "1" {
		t.Errorf("product aliased its input")
	}
}

func TestThresholdV(t *testing.T) {
	articles := mustParse(fixture.ArticlesXML)
	sel := Select(FromXML(articles), query2Pattern(), query2Scores())
	out := Threshold(sel, []ThresholdCond{V(4, 4.0)})
	// Only article (5.6) and chapter (5.0) exceed 4.0.
	if len(out) != 2 {
		t.Fatalf("threshold V=4 kept %d, want 2", len(out))
	}
	for _, w := range out {
		if s, _ := w.Score(w.NodesOfVar(4)[0]); s <= 4.0 {
			t.Errorf("kept score %v <= 4", s)
		}
	}
}

func TestThresholdK(t *testing.T) {
	articles := mustParse(fixture.ArticlesXML)
	sel := Select(FromXML(articles), query2Pattern(), query2Scores())
	out := Threshold(sel, []ThresholdCond{K(4, 3)})
	// Top 3 $4 scores: 5.6, 5.0, 3.6.
	if len(out) != 3 {
		t.Fatalf("threshold K=3 kept %d, want 3", len(out))
	}
	scoresSeen := map[float64]bool{}
	for _, w := range out {
		s, _ := w.Score(w.NodesOfVar(4)[0])
		scoresSeen[math.Round(s*10)/10] = true
	}
	for _, want := range []float64{5.6, 5.0, 3.6} {
		if !scoresSeen[want] {
			t.Errorf("top-3 missing score %v (have %v)", want, scoresSeen)
		}
	}
	// K=0 keeps nothing.
	if got := Threshold(sel, []ThresholdCond{K(4, 0)}); len(got) != 0 {
		t.Errorf("K=0 kept %d", len(got))
	}
	// K larger than population keeps everything.
	if got := Threshold(sel, []ThresholdCond{K(4, 10000)}); len(got) != len(sel) {
		t.Errorf("huge K kept %d, want %d", len(got), len(sel))
	}
}

func TestThresholdMultipleConds(t *testing.T) {
	articles := mustParse(fixture.ArticlesXML)
	sel := Select(FromXML(articles), query2Pattern(), query2Scores())
	out := Threshold(sel, []ThresholdCond{V(4, 4.0), K(4, 1)})
	if len(out) != 1 {
		t.Fatalf("V∧K kept %d, want 1", len(out))
	}
	if s, _ := out[0].Score(out[0].NodesOfVar(4)[0]); !approx(s, 5.6) {
		t.Errorf("winner score %v", s)
	}
}

func TestUnionPlainAndMerged(t *testing.T) {
	mk := func(tag string, ord int32, score float64) *ScoredTree {
		n := xmltree.NewElement(tag)
		xmltree.Number(n)
		n.Ord = ord
		st := NewScoredTree(n)
		st.SetScore(n, score)
		return st
	}
	a := Collection{mk("x", 1, 1.0), mk("x", 2, 2.0)}
	b := Collection{mk("x", 2, 3.0), mk("x", 5, 4.0)}
	plain := Union(a, b, nil)
	if len(plain) != 4 {
		t.Fatalf("plain union = %d", len(plain))
	}
	merged := Union(a, b, WeightedSum(1, 1))
	if len(merged) != 3 {
		t.Fatalf("merged union = %d, want 3", len(merged))
	}
	var got []float64
	for _, t2 := range merged {
		got = append(got, t2.RootScore())
	}
	// ord1: 1.0 (left only, untouched); ord2: 2+3=5; ord5: 0+4=4.
	want := map[float64]bool{1.0: true, 5.0: true, 4.0: true}
	for _, g := range got {
		if !want[g] {
			t.Errorf("unexpected merged score %v in %v", g, got)
		}
	}
}

func TestSortByRootScoreStable(t *testing.T) {
	mk := func(score float64) *ScoredTree {
		n := xmltree.NewElement("x")
		xmltree.Number(n)
		st := NewScoredTree(n)
		st.SetScore(n, score)
		return st
	}
	a, b, c := mk(1), mk(3), mk(3)
	sorted := Collection{a, b, c}.SortByRootScore()
	if sorted[0] != b || sorted[1] != c || sorted[2] != a {
		t.Errorf("sort wrong/unstable")
	}
}

func TestPickWorthyRootSubsumes(t *testing.T) {
	// Root with two relevant children is worth returning; the final flush
	// returns the root and only its same-class survivors, so the children
	// are subsumed (Fig. 12's ending).
	root := mustParse(`<r><a>x</a><a>y</a></r>`)
	st := NewScoredTree(root)
	for _, n := range root.FindTag("a") {
		st.SetScore(n, 1.0)
	}
	st.SetScore(root, 1.0)
	picked := PickedNodes(st, DefaultCriterion(0.8))
	if len(picked) != 1 || picked[0] != root {
		t.Fatalf("picked = %v, want just the worthy root", picked)
	}
}

func TestPickHorizontalDedup(t *testing.T) {
	// Unworthy root (2 of 4 scored children relevant — exactly 50%, not
	// more) emits the two relevant same-class siblings; horizontal dedup
	// keeps only the first.
	root := mustParse(`<r><a>x</a><a>y</a><a>z</a><a>w</a></r>`)
	st := NewScoredTree(root)
	as := root.FindTag("a")
	st.SetScore(as[0], 1.0)
	st.SetScore(as[1], 1.0)
	st.SetScore(as[2], 0.1)
	st.SetScore(as[3], 0.1)
	st.SetScore(root, 1.0)
	pc := DefaultCriterion(0.8)
	picked := PickedNodes(st, pc)
	if len(picked) != 2 {
		t.Fatalf("picked = %d nodes, want the 2 relevant siblings", len(picked))
	}
	pc.HorizontalDedup = true
	picked = PickedNodes(st, pc)
	if len(picked) != 1 || picked[0] != as[0] {
		t.Fatalf("with dedup picked = %v, want just the first sibling", picked)
	}
}

func TestScoredTreeBasics(t *testing.T) {
	root := mustParse(`<a><b/></a>`)
	st := NewScoredTree(root)
	if st.RootScore() != 0 {
		t.Errorf("unscored root score = %v", st.RootScore())
	}
	if _, ok := st.Score(root); ok {
		t.Errorf("unscored node reports a score")
	}
	st.SetScore(root, 2.5)
	if s, ok := st.Score(root); !ok || s != 2.5 {
		t.Errorf("SetScore failed")
	}
	st.AddVarNode(1, root)
	st.AddVarNode(1, root) // dedup
	if len(st.NodesOfVar(1)) != 1 {
		t.Errorf("AddVarNode did not dedup")
	}
	if !st.IsIRNode(root) || st.IsIRNode(root.Children[0]) {
		t.Errorf("IsIRNode wrong")
	}
	if st.String() == "" {
		t.Errorf("empty String()")
	}
}
