// Package repro's benchmark suite regenerates every table and figure of
// the paper's evaluation (Sec. 6) as testing.B benchmarks, one family per
// table:
//
//	BenchmarkTable1  — Table 1: 2-term queries, freq sweep, simple scoring
//	BenchmarkTable2  — Table 2: same sweep, complex scoring (+ Enhanced)
//	BenchmarkTable3  — Table 3: term1 fixed at 1,000, term2 swept
//	BenchmarkTable4  — Table 4: 2..n terms at freq ≈ 1,500
//	BenchmarkTable5  — Table 5: 13 phrases, PhraseFinder vs Comp3
//	BenchmarkPick    — Sec. 6 Pick experiment, 200 → 55,000 input nodes
//	BenchmarkQuery1  — the paper's Query 1 end to end: eval, then rendering
//
// plus the ablation benchmarks called out in DESIGN.md §5. The benchmarks
// run over the reduced SmallConfig corpus so `go test -bench=.` stays
// quick; cmd/tixbench runs the full-scale sweeps and prints the paper's
// row/column layout.
package repro

import (
	"context"
	"sync"
	"testing"

	"repro/internal/bench"
	"repro/internal/db"
	"repro/internal/exec"
	"repro/internal/storage"
	"repro/internal/synth"
	"repro/internal/xmltree"
	"repro/internal/xq"
)

var (
	corpusOnce sync.Once
	corpus     *bench.Corpus
	corpusErr  error
)

func benchCorpus(b *testing.B) *bench.Corpus {
	b.Helper()
	corpusOnce.Do(func() {
		corpus, corpusErr = bench.Build(bench.SmallConfig())
	})
	if corpusErr != nil {
		b.Fatal(corpusErr)
	}
	return corpus
}

func runTermMethod(b *testing.B, c *bench.Corpus, method bench.Method, terms []string, complex bool) {
	b.Helper()
	mode := exec.ChildCountNavigate
	if method == bench.MEnhancedTermJoin {
		mode = exec.ChildCountIndexed
	}
	q := exec.TermQuery{Terms: terms, Complex: complex, Scorer: exec.DefaultScorer{}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		acc := storage.NewAccessor(c.Index.Store())
		var run func(exec.Emit) error
		switch method {
		case bench.MComp1:
			run = (&exec.Comp1{Index: c.Index, Acc: acc, Query: q}).Run
		case bench.MComp2:
			run = (&exec.Comp2{Index: c.Index, Acc: acc, Query: q}).Run
		case bench.MGenMeet:
			run = (&exec.GenMeet{Index: c.Index, Acc: acc, Query: q}).Run
		default:
			run = (&exec.TermJoin{Index: c.Index, Acc: acc, Query: q, ChildCounts: mode}).Run
		}
		n := 0
		if err := run(func(exec.ScoredNode) { n++ }); err != nil {
			b.Fatal(err)
		}
		if n == 0 {
			b.Fatal("no results")
		}
	}
}

func termMethods(complex bool) []bench.Method {
	ms := []bench.Method{bench.MComp1, bench.MComp2, bench.MGenMeet, bench.MTermJoin}
	if complex {
		ms = append(ms, bench.MEnhancedTermJoin)
	}
	return ms
}

func benchTable12(b *testing.B, complex bool) {
	c := benchCorpus(b)
	for _, f := range bench.SmallConfig().Table1Freqs {
		t1, t2, err := c.PairTerms(f)
		if err != nil {
			b.Fatal(err)
		}
		for _, m := range termMethods(complex) {
			b.Run(string(m)+"/freq="+itoa(f), func(b *testing.B) {
				runTermMethod(b, c, m, []string{t1, t2}, complex)
			})
		}
	}
}

// BenchmarkTable1 regenerates Table 1 (simple scoring).
func BenchmarkTable1(b *testing.B) { benchTable12(b, false) }

// BenchmarkTable2 regenerates Table 2 (complex scoring + Enhanced).
func BenchmarkTable2(b *testing.B) { benchTable12(b, true) }

// BenchmarkTable3 regenerates Table 3: term1 fixed at frequency 1,000.
func BenchmarkTable3(b *testing.B) {
	c := benchCorpus(b)
	fixed, _, err := c.PairTerms(1000)
	if err != nil {
		b.Fatal(err)
	}
	for _, f := range bench.SmallConfig().Table3Term2Freqs {
		_, t2, err := c.PairTerms(f)
		if err != nil {
			b.Fatal(err)
		}
		for _, m := range termMethods(true) {
			b.Run(string(m)+"/term2freq="+itoa(f), func(b *testing.B) {
				runTermMethod(b, c, m, []string{fixed, t2}, true)
			})
		}
	}
}

// BenchmarkTable4 regenerates Table 4: query size sweep at freq ≈ 1,500.
func BenchmarkTable4(b *testing.B) {
	c := benchCorpus(b)
	for n := 2; n <= bench.SmallConfig().Table4Terms; n++ {
		terms, err := c.Table4Terms(n)
		if err != nil {
			b.Fatal(err)
		}
		for _, m := range termMethods(true) {
			b.Run(string(m)+"/terms="+itoa(n), func(b *testing.B) {
				runTermMethod(b, c, m, terms, true)
			})
		}
	}
}

// BenchmarkTable5 regenerates Table 5: PhraseFinder vs Comp3 per phrase.
func BenchmarkTable5(b *testing.B) {
	c := benchCorpus(b)
	for _, row := range bench.Table5Rows {
		t1, t2, _, _, err := c.Table5Phrase(row)
		if err != nil {
			b.Fatal(err)
		}
		phrase := []string{t1, t2}
		b.Run("PhraseFinder/query="+itoa(row.Query), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				pf := &exec.PhraseFinder{Index: c.Index, Phrase: phrase}
				n := 0
				if err := pf.Run(func(exec.PhraseMatch) { n++ }); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run("Comp3/query="+itoa(row.Query), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				c3 := &exec.Comp3{Index: c.Index, Acc: storage.NewAccessor(c.Index.Store()), Phrase: phrase}
				n := 0
				if err := c3.Run(func(exec.PhraseMatch) { n++ }); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkPick regenerates the Pick experiment: parent/child redundancy
// elimination over growing inputs (200 → 55,000 nodes in the paper).
func BenchmarkPick(b *testing.B) {
	for _, size := range bench.PickSizes {
		input := bench.PickInput(size, 7)
		b.Run("size="+itoa(size), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				exec.StackPick(input, exec.DefaultPickFuncs(0.8))
			}
		})
	}
}

// query1Src is the paper's Query 1 shape (Score → Pick → Threshold … stop
// after, Sec. 4) over the planted phrase and secondary term of query1DB's
// articles.xml — the request the wire-cold benchmark sends to /query. The
// count gate (internal/bench/golden_test.go) pins the same query over the
// same corpus.
const query1Src = `For $a in document("articles.xml")//article/descendant-or-self::*
Score $a using ScoreFoo($a, {"xqa xqb"}, {"xqc"})
Pick $a using PickFoo($a)
Sortby(score)
Threshold $a/@score > 1 stop after 5`

// query1DB loads a 300-article synthetic document (seed 1) as articles.xml
// into a fresh segment, planted as the wire-cold benchmark's articles.xml
// is: xqa, xqb and xqc each occur 900 times, and 600 of the xqa
// occurrences are directly followed by xqb.
func query1DB() (*db.DB, error) {
	const articles = 300
	cfg := synth.DefaultConfig()
	cfg.Articles = articles
	cfg.Seed = 1
	cfg.ControlTerms = map[string]int{"xqa": 3 * articles, "xqb": 3 * articles, "xqc": 3 * articles}
	cfg.Phrases = []synth.PhraseSpec{{T1: "xqa", T2: "xqb", Together: 2 * articles}}
	c, err := synth.Generate(cfg)
	if err != nil {
		return nil, err
	}
	d := db.New(db.Options{})
	if err := d.LoadTree("articles.xml", c.Root); err != nil {
		return nil, err
	}
	return d, nil
}

// BenchmarkQuery1 measures the paper's Query 1 (Score → Pick → Threshold
// stop after 5) over query1DB's 300-article document: "eval" is
// db.EvalQuery under a guard, as a /query request runs it, and "XMLString"
// renders the five results' subtrees as the reply does.
func BenchmarkQuery1(b *testing.B) {
	d, err := query1DB()
	if err != nil {
		b.Fatal(err)
	}
	q, err := xq.Parse(query1Src)
	if err != nil {
		b.Fatal(err)
	}
	idx := d.Index()
	eval := func() []xq.Result {
		rs, err := db.EvalQuery(idx, q, exec.NewGuard(context.Background(), exec.Limits{}), nil)
		if err != nil {
			b.Fatal(err)
		}
		return rs
	}
	b.Run("eval", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			eval()
		}
	})
	results := eval()
	b.Run("XMLString", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, r := range results {
				_ = xmltree.XMLString(r.Node)
			}
		}
	})
}

// BenchmarkAblationChildCount measures the child-count index of Enhanced
// TermJoin against store navigation under complex scoring (DESIGN.md §5).
func BenchmarkAblationChildCount(b *testing.B) {
	c := benchCorpus(b)
	t1, t2, err := c.PairTerms(1000)
	if err != nil {
		b.Fatal(err)
	}
	for _, mode := range []struct {
		name string
		cc   exec.ChildCountMode
	}{{"Navigate", exec.ChildCountNavigate}, {"Indexed", exec.ChildCountIndexed}} {
		b.Run(mode.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				tj := &exec.TermJoin{
					Index:       c.Index,
					Acc:         storage.NewAccessor(c.Index.Store()),
					Query:       exec.TermQuery{Terms: []string{t1, t2}, Complex: true, Scorer: exec.DefaultScorer{}},
					ChildCounts: mode.cc,
				}
				if err := tj.Run(func(exec.ScoredNode) {}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationHistogram measures the histogram-assisted relevance
// threshold of Sec. 5.3 against an exact sort-based quantile.
func BenchmarkAblationHistogram(b *testing.B) {
	c := benchCorpus(b)
	t1, t2, err := c.PairTerms(1000)
	if err != nil {
		b.Fatal(err)
	}
	tj := &exec.TermJoin{
		Index: c.Index,
		Acc:   storage.NewAccessor(c.Index.Store()),
		Query: exec.TermQuery{Terms: []string{t1, t2}, Scorer: exec.DefaultScorer{}},
	}
	scored, err := exec.Collect(tj.Run)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("Histogram", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			h := exec.NewScoreHistogram(scored, 64)
			_ = h.ThresholdForTopFraction(0.05)
		}
	})
	b.Run("ExactSort", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			tk := exec.NewTopK(len(scored)/20 + 1)
			for _, n := range scored {
				tk.Offer(n)
			}
			res := tk.Results()
			_ = res[len(res)-1].Score
		}
	})
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [12]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}
