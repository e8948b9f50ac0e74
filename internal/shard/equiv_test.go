package shard

import (
	"context"
	"errors"
	"fmt"
	"math"
	"testing"

	"repro/internal/db"
	"repro/internal/exec"
	"repro/internal/metrics"
	"repro/internal/scoring"
	"repro/internal/server"
	"repro/internal/storage"
	"repro/internal/synth"
	"repro/internal/xmltree"
)

// The facade is what the server fronts.
var _ server.Backend = (*DB)(nil)

// equivShardCounts is the sweep the differential suite runs: the trivial
// single-shard case, counts that divide the corpus unevenly, and more
// shards than some placements will populate.
var equivShardCounts = []int{1, 2, 3, 8}

// corpusDocs deterministically generates n small documents with planted
// control terms and phrase adjacencies. The returned trees are shared
// between the oracle and every sharded instance — region encodings and
// ordinals are per-document, so the numbering the first load assigns is
// valid in every store.
func corpusDocs(t testing.TB, n int, seed int64) (names []string, roots []*xmltree.Node) {
	t.Helper()
	for i := 0; i < n; i++ {
		cfg := synth.DefaultConfig()
		cfg.Articles = 5
		cfg.Seed = seed + int64(i)
		cfg.ControlTerms = map[string]int{"ctla": 30, "ctlb": 18, "ctlc": 7}
		cfg.Phrases = []synth.PhraseSpec{{T1: "ctla", T2: "ctlb", Together: 5}}
		c, err := synth.Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		names = append(names, fmt.Sprintf("doc%02d.xml", i))
		roots = append(roots, c.Root)
	}
	return names, roots
}

// newOracle loads the documents into one unsharded segment. Because the
// sharded facade numbers documents globally in load order, the oracle's
// document ids coincide with the sharded global ids.
func newOracle(t testing.TB, names []string, roots []*xmltree.Node) *db.DB {
	t.Helper()
	d := db.New(db.Options{})
	for i, name := range names {
		if err := d.LoadTree(name, roots[i]); err != nil {
			t.Fatal(err)
		}
	}
	return d
}

// newSharded loads the same documents into an n-shard database.
func newSharded(t testing.TB, n int, strategy Strategy, names []string, roots []*xmltree.Node) *DB {
	t.Helper()
	s := New(Options{Shards: n, Strategy: strategy})
	for i, name := range names {
		if err := s.LoadTree(name, roots[i]); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

// sameScored asserts element-for-element identity (doc, ord, score, order).
func sameScored(t *testing.T, label string, got, want []exec.ScoredNode) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%s: %d results, want %d", label, len(got), len(want))
		return
	}
	for i := range want {
		g, w := got[i], want[i]
		if g.Doc != w.Doc || g.Ord != w.Ord || math.Abs(g.Score-w.Score) > 1e-12 {
			t.Errorf("%s: result %d = (doc %d, ord %d, score %v), want (doc %d, ord %d, score %v)",
				label, i, g.Doc, g.Ord, g.Score, w.Doc, w.Ord, w.Score)
			return
		}
	}
}

// newMetered loads the documents into a single-shard facade recording
// into a registry of its own, so tests can read its exact access counts.
func newMetered(t testing.TB, names []string, roots []*xmltree.Node) *DB {
	t.Helper()
	s := New(Options{Shards: 1, Metrics: metrics.NewRegistry()})
	for i, name := range names {
		if err := s.LoadTree(name, roots[i]); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

// TestShardedTermSearchMatchesUnsharded holds the single-shard facade and
// every sharded one to the exhaustive TermJoin+TopK oracle on a
// bulk-loaded corpus — flat block lists, so top-k runs block-max.
func TestShardedTermSearchMatchesUnsharded(t *testing.T) {
	names, roots := corpusDocs(t, 9, 42)
	mono := newMetered(t, names, roots)
	// The K = 100 case must cut inside a tie to mean anything.
	all, _ := exhaustiveTopK(t, mono.Segment(0), []string{"ctla", "ctlb"}, db.TermSearchOptions{})
	if len(all) <= 100 || all[99].Score != all[100].Score {
		t.Fatalf("no tie at the 100th score among %d results", len(all))
	}
	sharded := map[string]*DB{}
	for _, n := range equivShardCounts[1:] {
		for _, strat := range []Strategy{ByHash, RoundRobin} {
			sharded[fmt.Sprintf("shards=%d %s", n, strat)] = newSharded(t, n, strat, names, roots)
		}
	}
	checkTermCases(t, "bulk", mono, sharded)
}

func TestShardedMethodsMatchMonolithic(t *testing.T) {
	names, roots := corpusDocs(t, 6, 77)
	oracle := newOracle(t, names, roots)
	terms := []string{"ctla", "ctlc"}
	for _, method := range []Method{
		MethodTermJoin, MethodEnhancedTermJoin, MethodComp1, MethodComp2, MethodGenMeet,
	} {
		// Monolithic reference: the same operator over the oracle's index.
		q := exec.TermQuery{Terms: terms, Scorer: exec.DefaultScorer{}}
		acc := storage.NewAccessor(oracle.Store())
		var runner interface{ Run(exec.Emit) error }
		switch method {
		case MethodTermJoin:
			runner = &exec.TermJoin{Index: oracle.Index(), Acc: acc, Query: q, ChildCounts: exec.ChildCountNavigate}
		case MethodEnhancedTermJoin:
			runner = &exec.TermJoin{Index: oracle.Index(), Acc: acc, Query: q, ChildCounts: exec.ChildCountIndexed}
		case MethodComp1:
			runner = &exec.Comp1{Index: oracle.Index(), Acc: acc, Query: q}
		case MethodComp2:
			runner = &exec.Comp2{Index: oracle.Index(), Acc: acc, Query: q}
		case MethodGenMeet:
			runner = &exec.GenMeet{Index: oracle.Index(), Acc: acc, Query: q}
		}
		want, err := exec.Collect(runner.Run)
		if err != nil {
			t.Fatalf("%s: oracle: %v", method, err)
		}
		exec.SortRanked(want)
		if len(want) == 0 {
			t.Fatalf("%s: oracle returned no results", method)
		}
		for _, n := range equivShardCounts {
			s := newSharded(t, n, ByHash, names, roots)
			got, _, err := s.RunTermMethod(context.Background(), method, terms, false)
			if err != nil {
				t.Fatalf("%s shards=%d: %v", method, n, err)
			}
			sameScored(t, fmt.Sprintf("%s shards=%d", method, n), got, want)
		}
	}
}

func TestShardedPhraseMatchesUnsharded(t *testing.T) {
	names, roots := corpusDocs(t, 7, 99)
	oracle := newOracle(t, names, roots)
	phrase := []string{"ctla", "ctlb"}
	want, err := oracle.PhraseSearchContext(context.Background(), phrase)
	if err != nil {
		t.Fatal(err)
	}
	if len(want) == 0 {
		t.Fatal("oracle found no phrase occurrences")
	}
	for _, n := range equivShardCounts {
		s := newSharded(t, n, ByHash, names, roots)
		got, err := s.PhraseSearchContext(context.Background(), phrase)
		if err != nil {
			t.Fatalf("shards=%d: %v", n, err)
		}
		if len(got) != len(want) {
			t.Fatalf("shards=%d: %d matches, want %d", n, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("shards=%d: match %d = %+v, want %+v", n, i, got[i], want[i])
			}
		}
	}
}

// queryFor builds the full query pipeline (Score, Pick, Sortby, Threshold)
// against one document — the per-document-routed family the facade
// supports.
func queryFor(name string) string {
	return fmt.Sprintf(`
		For $a in document(%q)//article/descendant-or-self::*
		Score $a using ScoreFoo($a, {"ctla ctlb"}, {"ctlc"})
		Pick $a using PickFoo($a, 0.8)
		Sortby(score)
		Threshold $a/@score stop after 10`, name)
}

func TestShardedQueryMatchesUnsharded(t *testing.T) {
	names, roots := corpusDocs(t, 5, 7)
	oracle := newOracle(t, names, roots)
	for _, name := range names {
		src := queryFor(name)
		want, err := oracle.QueryContext(context.Background(), src)
		if err != nil {
			t.Fatal(err)
		}
		if len(want) == 0 {
			t.Fatalf("%s: oracle returned no results", name)
		}
		for _, n := range equivShardCounts {
			s := newSharded(t, n, ByHash, names, roots)
			got, err := s.QueryContext(context.Background(), src)
			if err != nil {
				t.Fatalf("%s shards=%d: %v", name, n, err)
			}
			if len(got) != len(want) {
				t.Fatalf("%s shards=%d: %d results, want %d", name, n, len(got), len(want))
			}
			for i := range want {
				g, w := got[i], want[i]
				if g.Doc != w.Doc || g.Ord != w.Ord || math.Abs(g.Score-w.Score) > 1e-12 {
					t.Fatalf("%s shards=%d: result %d = (doc %d, ord %d, score %v), want (doc %d, ord %d, score %v)",
						name, n, i, g.Doc, g.Ord, g.Score, w.Doc, w.Ord, w.Score)
				}
				if g.Node.Start != w.Node.Start || g.Node.End != w.Node.End || g.Node.Tag != w.Node.Tag {
					t.Fatalf("%s shards=%d: result %d node = <%s> [%d,%d], want <%s> [%d,%d]",
						name, n, i, g.Node.Tag, g.Node.Start, g.Node.End, w.Node.Tag, w.Node.Start, w.Node.End)
				}
			}
		}
	}
}

func TestCrossShardQueryRejected(t *testing.T) {
	names, roots := corpusDocs(t, 4, 11)
	s := newSharded(t, 2, RoundRobin, names, roots)
	// Round-robin over 2 shards puts doc00 and doc01 on different shards.
	src := fmt.Sprintf(`
		For $a in document(%q)//article[/au/snm/text()="x"]
		For $b in document(%q)//article
		Let $sim := ScoreSim($a/atl, $b/atl)
		Where $sim > 0
		For $d in $a/descendant-or-self::*
		Score $d using ScoreFoo($d, {"ctla"}, {})
		Score $r using ScoreBar($sim, $d)
		Sortby(score)`, names[0], names[1])
	if _, err := s.QueryContext(context.Background(), src); !errors.Is(err, ErrCrossShard) {
		t.Fatalf("cross-shard query err = %v, want ErrCrossShard", err)
	}
	// The same two documents on one shard evaluate fine (no parse-level
	// rejection): a single-shard layout accepts any join.
	one := newSharded(t, 1, ByHash, names, roots)
	if _, err := one.QueryContext(context.Background(), src); err != nil {
		t.Fatalf("single-shard join query: %v", err)
	}
	// An unknown document is reported by name.
	if _, err := s.QueryContext(context.Background(), `For $a in document("missing.xml")//p Sortby(score)`); err == nil {
		t.Fatal("query over unknown document accepted")
	}
}

func TestShardedMaterializeAndNames(t *testing.T) {
	names, roots := corpusDocs(t, 5, 3)
	oracle := newOracle(t, names, roots)
	s := newSharded(t, 3, ByHash, names, roots)
	// The segment oracle's counterparts of the facade's Materialize and
	// NameOf.
	oracleNode := storage.NewAccessor(oracle.Store()).Materialize
	oracleName := func(n exec.ScoredNode) string { return oracle.Render(nil, []exec.ScoredNode{n})[0] }
	res, err := s.TermSearchContext(context.Background(), []string{"ctla"}, db.TermSearchOptions{TopK: 20})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res {
		want := oracleNode(r.Doc, r.Ord)
		got := s.Materialize(r.Doc, r.Ord)
		if got == nil || want == nil {
			t.Fatalf("materialize (doc %d, ord %d): got %v, want %v", r.Doc, r.Ord, got, want)
		}
		if got.Tag != want.Tag || got.Start != want.Start || got.End != want.End {
			t.Fatalf("materialize (doc %d, ord %d): <%s> [%d,%d], want <%s> [%d,%d]",
				r.Doc, r.Ord, got.Tag, got.Start, got.End, want.Tag, want.Start, want.End)
		}
		if gn, wn := s.NameOf(r), oracleName(r); gn != wn {
			t.Fatalf("NameOf(doc %d, ord %d) = %q, want %q", r.Doc, r.Ord, gn, wn)
		}
	}
	// Out-of-range global ids are nil/empty, not panics.
	if n := s.Materialize(storage.DocID(999), 0); n != nil {
		t.Errorf("materialize of unknown doc = %v", n)
	}
	if name := s.NameOf(exec.ScoredNode{Doc: 999}); name != "" {
		t.Errorf("NameOf unknown doc = %q", name)
	}
	// An ordinal outside its document is treated like an unknown
	// document, on both facades.
	for _, ord := range []int32{-1, 1 << 30} {
		bad := exec.ScoredNode{Doc: res[0].Doc, Ord: ord}
		if gn, wn := s.NameOf(bad), oracleName(bad); gn != "" || wn != "" {
			t.Errorf("NameOf(doc %d, ord %d) = %q sharded, %q unsharded; want empty", bad.Doc, ord, gn, wn)
		}
	}

	// One Render over the whole batch — hits from every segment, a
	// phrase match's text node, and the bad references above — answers
	// what the per-hit calls answer: the tag of an element, the text of a
	// text node, "" for a reference no segment holds.
	batch := append([]exec.ScoredNode{}, res...)
	var want []string
	for _, r := range res {
		want = append(want, oracleName(r))
	}
	ms, err := oracle.PhraseSearchContext(context.Background(), []string{"ctla", "ctlb"})
	if err != nil || len(ms) == 0 {
		t.Fatalf("phrase search: %d matches, %v", len(ms), err)
	}
	batch = append(batch, exec.ScoredNode{Doc: ms[0].Doc, Ord: ms[0].Node})
	want = append(want, oracleNode(ms[0].Doc, ms[0].Node).AllText())
	batch = append(batch, exec.ScoredNode{Doc: 999}, exec.ScoredNode{Doc: res[0].Doc, Ord: -1},
		exec.ScoredNode{Doc: res[0].Doc, Ord: 1 << 30})
	want = append(want, "", "", "")
	prefix := []string{"kept"}
	for _, c := range []struct {
		name string
		got  []string
	}{
		{"sharded", s.Render(prefix, batch)},
		{"unsharded", oracle.Render(prefix, batch)},
	} {
		name, got := c.name, c.got
		if len(got) != 1+len(want) || got[0] != "kept" {
			t.Fatalf("%s Render returned %d labels after %q, want %d after the kept prefix", name, len(got)-1, got[0], len(want))
		}
		for i, w := range want {
			if got[1+i] != w {
				t.Errorf("%s Render[%d] (doc %d, ord %d) = %q, want %q", name, i, batch[i].Doc, batch[i].Ord, got[1+i], w)
			}
		}
	}
}

func TestShardedStatsMatchUnsharded(t *testing.T) {
	names, roots := corpusDocs(t, 6, 21)
	oracle := newOracle(t, names, roots)
	want := oracle.Stats()
	for _, n := range equivShardCounts {
		s := newSharded(t, n, ByHash, names, roots)
		got := s.Stats()
		if got != want {
			t.Errorf("shards=%d: stats = %+v, want %+v", n, got, want)
		}
		if s.DocumentCount() != len(names) {
			t.Errorf("shards=%d: DocumentCount = %d, want %d", n, s.DocumentCount(), len(names))
		}
		for gid, name := range names {
			if got := s.DocName(storage.DocID(gid)); got != name {
				t.Errorf("shards=%d: DocName(%d) = %q, want %q", n, gid, got, name)
			}
		}
	}
}

// exhaustiveTopK is the oracle the term-search facades are held to: the
// full TermJoin over d's current snapshot, the MinScore filter, then a
// TopK (or a full sort when opts.TopK is 0). It also returns the join's
// store traffic, the cost an exhaustive facade would report.
func exhaustiveTopK(t *testing.T, d *db.DB, terms []string, opts db.TermSearchOptions) ([]exec.ScoredNode, storage.AccessStats) {
	t.Helper()
	idx := d.Index()
	tj := &exec.TermJoin{
		Index: idx,
		Acc:   storage.NewAccessor(idx.Store()),
		Query: exec.TermQuery{Terms: terms, Complex: opts.Complex, Scorer: exec.DefaultScorer{
			SimpleFn:  scoring.SimpleScorer{Weights: opts.Weights},
			ComplexFn: scoring.ComplexScorer{Weights: opts.Weights},
		}},
		ChildCounts: exec.ChildCountNavigate,
	}
	all, err := exec.Collect(tj.Run)
	if err != nil {
		t.Fatal(err)
	}
	k := opts.TopK
	if k <= 0 {
		k = len(all)
	}
	tk := exec.NewTopK(k)
	for _, n := range all {
		if opts.MinScore <= 0 || n.Score > opts.MinScore {
			tk.Offer(n)
		}
	}
	return tk.Results(), tj.AccessStats()
}

// termCases are the TermSearch shapes the differential suites sweep. The
// top-k shapes run the pruned TopKTermJoin, except the negative-weight
// one, which must stay the exhaustive join.
var termCases = []struct {
	label      string
	opts       db.TermSearchOptions
	exhaustive bool // answered by the exhaustive join, never pruned
}{
	{"simple", db.TermSearchOptions{}, true},
	{"complex", db.TermSearchOptions{Complex: true}, true},
	{"minscore", db.TermSearchOptions{MinScore: 1.5}, true},
	{"weights", db.TermSearchOptions{Complex: true, Weights: []float64{0.9, 0.3}}, true},
	{"topk", db.TermSearchOptions{TopK: 10}, false},
	{"topk-complex", db.TermSearchOptions{Complex: true, TopK: 7}, false},
	{"topk-weights", db.TermSearchOptions{TopK: 6, Weights: []float64{0.9, 0.3}}, false},
	{"topk-weights-complex", db.TermSearchOptions{Complex: true, TopK: 6, Weights: []float64{0.9, 0.3}}, false},
	{"topk-100-ties", db.TermSearchOptions{TopK: 100}, false},
	{"minscore-topk", db.TermSearchOptions{MinScore: 1.0, TopK: 5}, false},
	{"negative-weight", db.TermSearchOptions{TopK: 10, Weights: []float64{1, -0.5}}, true},
}

// checkTermCases runs every case through the single-shard facade mono and
// the sharded ones and holds each to the exhaustive oracle over mono's
// segment; mono's node reads are held to the oracle's.
func checkTermCases(t *testing.T, label string, mono *DB, sharded map[string]*DB) {
	t.Helper()
	terms := []string{"ctla", "ctlb"}
	reads := func() int64 {
		return mono.MetricsRegistry().Counter(`tix_access_node_reads_total{op="terms"}`).Value()
	}
	for _, tc := range termCases {
		want, cost := exhaustiveTopK(t, mono.Segment(0), terms, tc.opts)
		if len(want) == 0 {
			t.Fatalf("%s %s: oracle returned no results", label, tc.label)
		}
		before := reads()
		got, err := mono.TermSearchContext(context.Background(), terms, tc.opts)
		if err != nil {
			t.Fatalf("%s %s: %v", label, tc.label, err)
		}
		sameScored(t, fmt.Sprintf("%s %s mono", label, tc.label), got, want)
		// A pruned search reads no node the exhaustive join would not.
		switch used := reads() - before; {
		case tc.exhaustive && used != cost.NodeReads:
			t.Errorf("%s %s: %d node reads, want the exhaustive %d", label, tc.label, used, cost.NodeReads)
		case used > cost.NodeReads:
			t.Errorf("%s %s: %d node reads, more than the exhaustive %d", label, tc.label, used, cost.NodeReads)
		}
		for name, s := range sharded {
			got, err := s.TermSearchContext(context.Background(), terms, tc.opts)
			if err != nil {
				t.Fatalf("%s %s %s: %v", label, tc.label, name, err)
			}
			sameScored(t, fmt.Sprintf("%s %s %s", label, tc.label, name), got, want)
		}
	}
}

// liveCorpus builds the single-shard facade and 2- and 3-shard ones over
// the same corpus, then applies the same Adds and Delete to each, so every
// list is a merged memtable/segment view with a tombstone.
func liveCorpus(t *testing.T) (mono *DB, sharded map[string]*DB) {
	t.Helper()
	names, roots := corpusDocs(t, 6, 314)
	mono = newMetered(t, names, roots)
	sharded = map[string]*DB{}
	for _, n := range []int{2, 3} {
		sharded[fmt.Sprintf("shards=%d", n)] = newSharded(t, n, ByHash, names, roots)
	}
	for _, d := range append([]*DB{mono}, sharded["shards=2"], sharded["shards=3"]) {
		d.Warm()
		for i := 0; i < 4; i++ {
			src := fmt.Sprintf(`<article><p>ctla ctlb ctla w%d</p><sec><p>ctlb</p><p>ctla ctlb</p></sec></article>`, i)
			if err := d.Add(fmt.Sprintf("live%d.xml", i), src); err != nil {
				t.Fatal(err)
			}
		}
		if err := d.Delete(names[2]); err != nil {
			t.Fatal(err)
		}
	}
	return mono, sharded
}

// TestPrunedTermSearchOnLiveSnapshot repeats the cases on the live corpus,
// where top-k runs best-first block-max over merged lists.
func TestPrunedTermSearchOnLiveSnapshot(t *testing.T) {
	mono, sharded := liveCorpus(t)
	checkTermCases(t, "live", mono, sharded)
}
