// Package bench builds the experimental workloads of Sec. 6 and runs the
// access methods over them, regenerating every table of the paper's
// evaluation: Tables 1–4 (TermJoin vs Comp1/Comp2/Generalized Meet, with
// the Enhanced TermJoin variant under complex scoring), Table 5
// (PhraseFinder vs Comp3 over 13 phrases), and the Pick timing experiment.
//
// The INEX corpus is replaced by the synthetic corpus of internal/synth
// with control terms planted at the exact frequencies each table sweeps;
// see DESIGN.md §2 for the substitution argument. Frequencies larger than
// the corpus can absorb are scaled down by Config.Table5Divisor, and
// EXPERIMENTS.md reports ratios rather than absolute seconds.
package bench

import (
	"fmt"
	"io"
	"sort"

	"repro/internal/db"
	"repro/internal/index"
	"repro/internal/shard"
	"repro/internal/synth"
	"repro/internal/xmltree"
)

// Table1Freqs are the per-term frequencies swept by Tables 1 and 2.
var Table1Freqs = []int{20, 100, 200, 300, 500, 1000, 2000, 3000, 5500, 7000, 10000}

// Table3Term2Freqs are the second-term frequencies of Table 3 (term 1 is
// fixed at 1,000).
var Table3Term2Freqs = []int{20, 200, 1000, 3000, 7000}

// Table4MaxTerms is the largest query size of Table 4 (2..7 terms, each at
// frequency ≈ 1,500).
const Table4MaxTerms = 7

// Table4Freq is the per-term frequency of Table 4.
const Table4Freq = 1500

// Table5Row describes one of the 13 phrase queries of Table 5 with the
// paper's term frequencies and result sizes (phrase occurrence counts).
type Table5Row struct {
	Query      int
	Freq1      int
	Freq2      int
	ResultSize int
}

// Table5Rows are the paper's Table 5 workloads.
var Table5Rows = []Table5Row{
	{1, 121076, 44930, 27991},
	{2, 121076, 79677, 462},
	{3, 107269, 146477, 1219},
	{4, 107269, 79677, 1212},
	{5, 98405, 146477, 877},
	{6, 121076, 146477, 1189},
	{7, 90482, 68801, 116},
	{8, 121076, 45988, 34},
	{9, 121076, 107269, 320},
	{10, 98405, 28044, 455},
	{11, 146477, 68801, 1372},
	{12, 121076, 68801, 249},
	{13, 98405, 107269, 17},
}

// Config sizes the benchmark corpus.
type Config struct {
	// Articles is the number of synthetic articles; ~90 elements each.
	Articles int
	// Seed drives deterministic generation.
	Seed int64
	// Table1Freqs / Table3Term2Freqs / Table4Terms override the default
	// sweeps (nil keeps the paper's).
	Table1Freqs      []int
	Table3Term2Freqs []int
	Table4Terms      int
	// Table5Divisor scales down Table 5's term frequencies and result
	// sizes so they fit the corpus (the paper's corpus is 500 MB; ours is
	// memory-resident). 0 means the default of 20.
	Table5Divisor int
	// SkipTable5 omits the phrase workload (faster corpus builds for
	// term-join-only experiments).
	SkipTable5 bool
	// ShardFreq, when non-zero, plants an extra control-term pair at this
	// frequency for the sharded-speedup experiment (the paper-scale
	// "150,000-frequency" query Table 1 could not absorb). The pair is
	// reachable through PairTerms like any Table 1 frequency.
	ShardFreq int
	// Runs overrides the per-cell repetition count for this corpus's
	// experiments (0 = the package-level Runs default).
	Runs int
}

// DefaultConfig is the full-scale configuration used by cmd/tixbench.
func DefaultConfig() Config {
	return Config{Articles: 5000, Seed: 42}
}

// SmallConfig is a reduced configuration for unit tests and Go benchmarks:
// smaller corpus, truncated frequency sweep, heavier Table 5 scaling.
func SmallConfig() Config {
	return Config{
		Articles:         150,
		Seed:             42,
		Table1Freqs:      []int{20, 100, 300, 1000},
		Table3Term2Freqs: []int{20, 200, 1000},
		Table4Terms:      4,
		Table5Divisor:    200,
	}
}

// Corpus is the generated workload: the indexed store plus the control
// terms each experiment uses.
type Corpus struct {
	Cfg Config
	// DB owns the indexed corpus; Index aliases DB's index so the
	// method runners keep their direct index access.
	DB    *db.DB
	Index *index.Index
	Stats synth.Corpus
	// PairTerm returns the two control terms planted at a Table 1/2
	// frequency: pairTerm[freq] = [2]string.
	pairTerms map[int][2]string
	// table4Terms are the Table 4 terms (each at Table4Freq).
	table4Terms []string
	// table5Terms maps a paper frequency to its planted control term.
	table5Terms map[int]string
}

func (c *Corpus) freqs() []int {
	if c.Cfg.Table1Freqs != nil {
		return c.Cfg.Table1Freqs
	}
	return Table1Freqs
}

func (c *Corpus) t3freqs() []int {
	if c.Cfg.Table3Term2Freqs != nil {
		return c.Cfg.Table3Term2Freqs
	}
	return Table3Term2Freqs
}

func (c *Corpus) t4terms() int {
	if c.Cfg.Table4Terms != 0 {
		return c.Cfg.Table4Terms
	}
	return Table4MaxTerms
}

func (c *Corpus) t5divisor() int {
	if c.Cfg.Table5Divisor != 0 {
		return c.Cfg.Table5Divisor
	}
	return 20
}

// PairTerms returns the two control terms planted at the given frequency.
func (c *Corpus) PairTerms(freq int) (string, string, error) {
	p, ok := c.pairTerms[freq]
	if !ok {
		return "", "", fmt.Errorf("bench: no control terms at frequency %d", freq)
	}
	return p[0], p[1], nil
}

// Table4Terms returns the first n same-frequency terms of the Table 4
// workload.
func (c *Corpus) Table4Terms(n int) ([]string, error) {
	if n > len(c.table4Terms) {
		return nil, fmt.Errorf("bench: only %d table-4 terms planted, want %d", len(c.table4Terms), n)
	}
	return c.table4Terms[:n], nil
}

// Table5Phrase returns the planted phrase (two control terms) for a Table 5
// row, with the scaled frequencies.
func (c *Corpus) Table5Phrase(row Table5Row) (t1, t2 string, f1, f2 int, err error) {
	div := c.t5divisor()
	t1, ok1 := c.table5Terms[row.Freq1]
	t2, ok2 := c.table5Terms[row.Freq2]
	if !ok1 || !ok2 {
		return "", "", 0, 0, fmt.Errorf("bench: table 5 terms missing (corpus built with SkipTable5?)")
	}
	return t1, t2, row.Freq1 / div, row.Freq2 / div, nil
}

// Build generates and indexes the benchmark corpus.
func Build(cfg Config) (*Corpus, error) {
	c := &Corpus{
		Cfg:         cfg,
		pairTerms:   map[int][2]string{},
		table5Terms: map[int]string{},
	}
	control := map[string]int{}
	var phrases []synth.PhraseSpec

	// Tables 1–3: a pair of terms per frequency.
	for _, f := range c.freqs() {
		a := fmt.Sprintf("ta%d", f)
		b := fmt.Sprintf("tb%d", f)
		c.pairTerms[f] = [2]string{a, b}
		control[a] = f
		control[b] = f
	}
	// Table 3 reuses ta1000 as the fixed term and tb<f> as the varied one;
	// make sure the varied frequencies exist even when Table1Freqs was
	// overridden.
	for _, f := range c.t3freqs() {
		if _, ok := c.pairTerms[f]; !ok {
			a := fmt.Sprintf("ta%d", f)
			b := fmt.Sprintf("tb%d", f)
			c.pairTerms[f] = [2]string{a, b}
			control[a] = f
			control[b] = f
		}
	}
	if _, ok := c.pairTerms[1000]; !ok {
		c.pairTerms[1000] = [2]string{"ta1000", "tb1000"}
		control["ta1000"] = 1000
		control["tb1000"] = 1000
	}
	// Sharded-speedup experiment: one extra pair at a frequency beyond
	// the Table 1 sweep.
	if cfg.ShardFreq > 0 {
		if _, ok := c.pairTerms[cfg.ShardFreq]; !ok {
			a := fmt.Sprintf("ta%d", cfg.ShardFreq)
			b := fmt.Sprintf("tb%d", cfg.ShardFreq)
			c.pairTerms[cfg.ShardFreq] = [2]string{a, b}
			control[a] = cfg.ShardFreq
			control[b] = cfg.ShardFreq
		}
	}
	// Table 4: n terms at the same frequency.
	for i := 0; i < c.t4terms(); i++ {
		name := fmt.Sprintf("tg%d", i+1)
		c.table4Terms = append(c.table4Terms, name)
		control[name] = Table4Freq
	}
	// Table 5: one term per distinct paper frequency (scaled), plus the
	// planted phrase adjacencies per row (scaled result sizes).
	if !cfg.SkipTable5 {
		div := c.t5divisor()
		distinct := map[int]bool{}
		for _, row := range Table5Rows {
			distinct[row.Freq1] = true
			distinct[row.Freq2] = true
		}
		freqs := make([]int, 0, len(distinct))
		for f := range distinct {
			freqs = append(freqs, f)
		}
		sort.Ints(freqs)
		for _, f := range freqs {
			name := fmt.Sprintf("th%d", f)
			c.table5Terms[f] = name
			control[name] = f / div
		}
		// Planted adjacencies; budget check: each term's total planted
		// pairs must fit its frequency.
		need := map[string]int{}
		for _, row := range Table5Rows {
			together := row.ResultSize / div
			if together < 1 {
				together = 1
			}
			t1 := c.table5Terms[row.Freq1]
			t2 := c.table5Terms[row.Freq2]
			phrases = append(phrases, synth.PhraseSpec{T1: t1, T2: t2, Together: together})
			need[t1] += together
			need[t2] += together
		}
		needTerms := make([]string, 0, len(need))
		for term := range need {
			needTerms = append(needTerms, term)
		}
		sort.Strings(needTerms)
		for _, term := range needTerms {
			if n := need[term]; control[term] < n {
				control[term] = n
			}
		}
	}

	gen := synth.DefaultConfig()
	gen.Articles = cfg.Articles
	gen.Seed = cfg.Seed
	gen.ControlTerms = control
	gen.Phrases = phrases
	corpus, err := synth.Generate(gen)
	if err != nil {
		return nil, fmt.Errorf("bench: corpus generation: %w", err)
	}
	c.DB = db.New(db.Options{})
	if err := c.DB.LoadTree("corpus.xml", corpus.Root); err != nil {
		return nil, err
	}
	c.Index = c.DB.Index()
	c.Stats = *corpus
	c.Stats.Root = nil // the store owns the tree; avoid double retention
	return c, nil
}

// Snapshot writes the corpus, store and index, as a one-shard snapshot
// file (shard.DB.Save). Because synth generation, loading, and index
// construction are all deterministic in Config.Seed, two corpora built
// from the same Config snapshot to identical bytes — the determinism test
// pins exactly that.
func (c *Corpus) Snapshot(w io.Writer) error {
	s := shard.New(shard.Options{})
	for _, doc := range c.DB.Store().Docs() {
		if err := s.LoadTree(doc.Name, doc.Root); err != nil {
			return err
		}
	}
	s.Warm() // persist the index too
	return s.Save(w)
}

// SplitParts re-partitions the single corpus document into parts contiguous
// article-range documents (cloned and renumbered), for loading into a
// sharded database. parts must not exceed the article count.
func (c *Corpus) SplitParts(parts int) ([]*xmltree.Node, error) {
	docs := c.DB.Store().Docs()
	if len(docs) != 1 {
		return nil, fmt.Errorf("bench: corpus has %d documents, want 1", len(docs))
	}
	root := docs[0].Root
	articles := root.Children
	if parts < 1 || parts > len(articles) {
		return nil, fmt.Errorf("bench: cannot split %d articles into %d parts", len(articles), parts)
	}
	out := make([]*xmltree.Node, 0, parts)
	for i := 0; i < parts; i++ {
		lo := i * len(articles) / parts
		hi := (i + 1) * len(articles) / parts
		part := &xmltree.Node{Tag: root.Tag}
		for _, a := range articles[lo:hi] {
			child := a.Clone()
			child.Parent = part
			part.Children = append(part.Children, child)
		}
		xmltree.Number(part)
		out = append(out, part)
	}
	return out, nil
}

// ShardDB loads the corpus, split into parts documents, into a sharded
// database with the given shard count (round-robin placement for balanced
// segments) and warms every segment index. Using the same parts count for
// every shard count keeps the per-document work identical, so timing
// differences isolate the fan-out itself.
func (c *Corpus) ShardDB(shards, parts int) (*shard.DB, error) {
	roots, err := c.SplitParts(parts)
	if err != nil {
		return nil, err
	}
	s := shard.New(shard.Options{Shards: shards, Strategy: shard.RoundRobin})
	for i, r := range roots {
		if err := s.LoadTree(fmt.Sprintf("part%03d.xml", i), r); err != nil {
			return nil, err
		}
	}
	s.Warm()
	return s, nil
}
