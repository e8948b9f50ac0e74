package bench

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"time"

	"repro/internal/exec"
	"repro/internal/index"
	"repro/internal/storage"
	"repro/internal/synth"
	"repro/internal/tokenize"
	"repro/internal/xmltree"
)

// The hot-path rig: a many-small-document corpus tier (up to one million
// documents, streamed into the store so no bulk tree is ever
// materialized) over which the three uncached hot paths — TermJoin,
// TopKTermJoin, PhraseFinder — are measured in ns/op, allocs/op and
// bytes/op (`tixbench -table hotpath`). Timings gate nothing; the gate
// tier's result counts, node reads, pruning counters and allocation
// ceilings are pinned by the golden suite (golden_test.go).

// HotpathTierSpec names one corpus tier of the hot-path rig.
type HotpathTierSpec struct {
	// Name becomes the table ID suffix ("hotpath-<name>").
	Name string
	// Docs is the streamed corpus size in documents.
	Docs int
}

// HotpathTiers are the standard tiers: a small one cheap enough for the
// golden count gate inside tier-1 tests, and the million-document tier
// the acceptance numbers come from.
var HotpathTiers = []HotpathTierSpec{
	{Name: "gate", Docs: 20000},
	{Name: "1m", Docs: 1000000},
}

// HotpathTier resolves a tier by name.
func HotpathTier(name string) (HotpathTierSpec, error) {
	for _, t := range HotpathTiers {
		if t.Name == name {
			return t, nil
		}
	}
	return HotpathTierSpec{}, fmt.Errorf("bench: unknown hotpath tier %q", name)
}

// MTopKTermJoin is the top-k column of the hot-path table.
const MTopKTermJoin Method = "TopKTermJoin"

// hotpathWorkload derives the planted workload for a tier from its
// document count: per row a term pair for the joins and a
// skewed-frequency phrase (rare + common term) for PhraseFinder.
type hotpathWorkload struct {
	label                string
	pairFreq             int // per-term frequency of the join pair
	rareFreq, commonFreq int // phrase term frequencies
	together             int // planted adjacencies
	pairA, pairB, pr, pc string
}

func hotpathWorkloads(docs int) []hotpathWorkload {
	mk := func(label string, pair, rare, common, together int) hotpathWorkload {
		atLeast1 := func(n int) int {
			if n < 1 {
				return 1
			}
			return n
		}
		pair, rare, common, together = atLeast1(pair), atLeast1(rare), atLeast1(common), atLeast1(together)
		return hotpathWorkload{
			label: label, pairFreq: pair, rareFreq: rare, commonFreq: common, together: together,
			pairA: fmt.Sprintf("ja%s", label), pairB: fmt.Sprintf("jb%s", label),
			pr: fmt.Sprintf("pr%s", label), pc: fmt.Sprintf("pc%s", label),
		}
	}
	return []hotpathWorkload{
		// Sparse: posting lists well below the resident-adoption density.
		mk("sparse", docs/50, docs/1000, docs/20, docs/2000),
		// Dense: one posting every other document — past the adoption
		// threshold, so the joins and the phrase verifier run over
		// resident postings where the list is long enough.
		mk("dense", docs/2, docs/500, docs/4, docs/1000),
	}
}

func (w hotpathWorkload) query() exec.TermQuery {
	return exec.TermQuery{Terms: []string{w.pairA, w.pairB}, Scorer: exec.DefaultScorer{}}
}

// termJoin runs one exhaustive TermJoin over the row's pair through a
// fresh accessor, as an uncached request does, and reports its result
// count and store traffic.
func (w hotpathWorkload) termJoin(idx *index.Index) (int, storage.AccessStats, error) {
	acc := storage.NewAccessor(idx.Store())
	tj := &exec.TermJoin{Index: idx, Acc: acc, Query: w.query()}
	n := 0
	err := tj.Run(func(exec.ScoredNode) { n++ })
	return n, acc.Stats, err
}

// topK runs TopKTermJoin over the row's pair and returns the operator,
// whose pruning counters describe the run, with the result count.
func (w hotpathWorkload) topK(idx *index.Index) (*exec.TopKTermJoin, int, error) {
	tk := &exec.TopKTermJoin{Index: idx, Query: w.query(), K: 10}
	res, err := tk.Run()
	return tk, len(res), err
}

// phrase runs PhraseFinder over the row's skewed phrase.
func (w hotpathWorkload) phrase(idx *index.Index) (int, error) {
	pf := &exec.PhraseFinder{Index: idx, Phrase: []string{w.pr, w.pc}}
	n := 0
	err := pf.Run(func(exec.PhraseMatch) { n++ })
	return n, err
}

// HotpathCorpus builds one tier's corpus: documents are generated and
// ingested one at a time, then indexed once.
func HotpathCorpus(spec HotpathTierSpec, seed int64) (*index.Index, *synth.StreamStats, error) {
	cfg := synth.DefaultStreamConfig(spec.Docs)
	cfg.Seed = seed
	cfg.ControlTerms = map[string]int{}
	var phrases []synth.PhraseSpec
	for _, w := range hotpathWorkloads(spec.Docs) {
		cfg.ControlTerms[w.pairA] = w.pairFreq
		cfg.ControlTerms[w.pairB] = w.pairFreq
		cfg.ControlTerms[w.pr] = w.rareFreq
		cfg.ControlTerms[w.pc] = w.commonFreq
		phrases = append(phrases, synth.PhraseSpec{T1: w.pr, T2: w.pc, Together: w.together})
	}
	cfg.Phrases = phrases

	s := storage.NewStore()
	stats, err := synth.GenerateStream(cfg, func(i int, root *xmltree.Node) error {
		_, aerr := s.AddTree(fmt.Sprintf("d%07d.xml", i), root)
		return aerr
	})
	if err != nil {
		return nil, nil, err
	}
	idx, err := index.BuildChecked(s, tokenize.New())
	if err != nil {
		return nil, nil, err
	}
	return idx, stats, nil
}

// hotpathBatches is how many timed batches each cell runs; the per-op
// numbers keep the fastest batch. Minimum-of-N is the robust estimator
// here: scheduler preemption, GC assists, and neighbor load only ever
// make a batch slower, so the minimum tracks the code while the mean
// tracks the machine's mood.
const hotpathBatches = 3

// hotpathMeasure times one operation: a GC-settled warm-up run sizes the
// batch, then hotpathBatches batches are timed under runtime.MemStats
// deltas for allocs/op and bytes/op, keeping each metric's minimum.
// Results and errors come from the last run.
//
// The collector is disabled across the timed batches (each batch starts
// from a freshly collected heap). On one core a mark cycle over a
// multi-hundred-MB corpus is enormous next to a sub-millisecond op, and
// whether a given batch overlaps a cycle is phase alignment — a coin
// flip that swings per-op time several-fold and poisons any committed
// baseline. With GC off, time measures the algorithm deterministically;
// GC *pressure* is reported separately, and machine-independently,
// through allocs/op.
func hotpathMeasure(f func() (int, error)) (Measurement, error) {
	var m Measurement
	runtime.GC()
	start := time.Now()
	n, err := f()
	warm := time.Since(start)
	if err != nil {
		return m, err
	}
	prevGC := debug.SetGCPercent(-1)
	defer debug.SetGCPercent(prevGC)
	// Aim for ~300ms per batch; at least 2 runs so one-off effects
	// (first-touch faults, lazily built caches) do not dominate, at most
	// 2000 so a tiny op does not stall the rig.
	runs := 2
	if warm > 0 {
		if r := int(300 * time.Millisecond / warm); r > runs {
			runs = r
		}
	}
	if runs > 2000 {
		runs = 2000
	}
	for b := 0; b < hotpathBatches; b++ {
		runtime.GC()
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		start = time.Now()
		for i := 0; i < runs; i++ {
			if n, err = f(); err != nil {
				return m, err
			}
		}
		wall := time.Since(start)
		runtime.ReadMemStats(&ms1)
		secs := wall.Seconds() / float64(runs)
		allocs := float64(ms1.Mallocs-ms0.Mallocs) / float64(runs)
		bytes := float64(ms1.TotalAlloc-ms0.TotalAlloc) / float64(runs)
		if b == 0 || secs < m.Seconds {
			m.Seconds = secs
		}
		if b == 0 || allocs < m.AllocsPerOp {
			m.AllocsPerOp = allocs
		}
		if b == 0 || bytes < m.BytesPerOp {
			m.BytesPerOp = bytes
		}
	}
	m.Results = n
	return m, nil
}

// HotpathTable builds the tier's corpus and measures every hot path over
// it. The table's per-cell Seconds are per-operation (not per-table-run),
// with AllocsPerOp/BytesPerOp filled in.
func HotpathTable(spec HotpathTierSpec, seed int64) (*Table, error) {
	idx, _, err := HotpathCorpus(spec, seed)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:      "hotpath-" + spec.Name,
		Caption: fmt.Sprintf("Uncached hot paths, %d-document streamed tier (seconds per op)", spec.Docs),
		Columns: []Method{MTermJoin, MTopKTermJoin, MPhraseFinder},
	}
	for _, w := range hotpathWorkloads(spec.Docs) {
		row := Row{Label: w.label, Extra: fmt.Sprintf("pairFreq=%d rare=%d common=%d together=%d", w.pairFreq, w.rareFreq, w.commonFreq, w.together)}
		tjM, tjErr := hotpathMeasure(func() (int, error) {
			n, _, err := w.termJoin(idx)
			return n, err
		})
		tkM, tkErr := hotpathMeasure(func() (int, error) {
			_, n, err := w.topK(idx)
			return n, err
		})
		pfM, pfErr := hotpathMeasure(func() (int, error) { return w.phrase(idx) })
		row.Cells = append(row.Cells,
			Cell{Method: MTermJoin, M: tjM, Err: tjErr},
			Cell{Method: MTopKTermJoin, M: tkM, Err: tkErr},
			Cell{Method: MPhraseFinder, M: pfM, Err: pfErr})
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}
