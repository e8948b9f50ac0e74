package bench

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"time"

	"repro/internal/db"
	"repro/internal/exec"
	"repro/internal/metrics"
	"repro/internal/shard"
	"repro/internal/storage"
)

// Method names the access methods under evaluation, matching the paper's
// table columns.
type Method string

// The methods of Tables 1–4 and Table 5.
const (
	MComp1            Method = "Comp1"
	MComp2            Method = "Comp2"
	MGenMeet          Method = "GenMeet"
	MTermJoin         Method = "TermJoin"
	MEnhancedTermJoin Method = "EnhTermJoin"
	MPhraseFinder     Method = "PhraseFinder"
	MComp3            Method = "Comp3"
)

// Measurement is one timed method execution.
type Measurement struct {
	Method  Method
	Seconds float64
	Results int
	Stats   storage.AccessStats
	// AllocsPerOp and BytesPerOp are heap-allocation costs per execution
	// (runtime.MemStats deltas over the timed runs). Only the hot-path
	// rig fills them; zero means "not measured".
	AllocsPerOp float64
	BytesPerOp  float64
}

// Runs is how many times each method executes per cell; following the
// paper's methodology the lowest and highest readings are dropped and the
// rest averaged (with fewer than 3 runs, all are averaged). Config.Runs
// overrides it per corpus.
var Runs = 3

// runs resolves the per-cell repetition count for this corpus.
func (c *Corpus) runs() int {
	if c.Cfg.Runs > 0 {
		return c.Cfg.Runs
	}
	return Runs
}

// timeIt runs f the given number of times and returns the trimmed mean of
// the wall-clock seconds along with the last run's auxiliary outputs.
func timeIt(runs int, f func() (int, storage.AccessStats, error)) (Measurement, error) {
	var m Measurement
	secs := make([]float64, 0, runs)
	for i := 0; i < runs; i++ {
		runtime.GC() // keep allocation debt from a prior method out of this timing
		start := time.Now()
		n, stats, err := f()
		if err != nil {
			return m, err
		}
		secs = append(secs, time.Since(start).Seconds())
		m.Results = n
		m.Stats = stats
	}
	sort.Float64s(secs)
	if len(secs) > 2 {
		secs = secs[1 : len(secs)-1] // drop lowest and highest
	}
	sum := 0.0
	for _, s := range secs {
		sum += s
	}
	m.Seconds = sum / float64(len(secs))
	return m, nil
}

// RunTermMethod executes one term-join access method over the given terms.
func (c *Corpus) RunTermMethod(method Method, terms []string, complex bool) (Measurement, error) {
	q := exec.TermQuery{Terms: terms, Complex: complex, Scorer: exec.DefaultScorer{}}
	m, err := timeIt(c.runs(), func() (int, storage.AccessStats, error) {
		acc := storage.NewAccessor(c.Index.Store())
		var runner interface{ Run(exec.Emit) error }
		switch method {
		case MComp1:
			runner = &exec.Comp1{Index: c.Index, Acc: acc, Query: q}
		case MComp2:
			runner = &exec.Comp2{Index: c.Index, Acc: acc, Query: q}
		case MGenMeet:
			runner = &exec.GenMeet{Index: c.Index, Acc: acc, Query: q}
		case MTermJoin:
			runner = &exec.TermJoin{Index: c.Index, Acc: acc, Query: q, ChildCounts: exec.ChildCountNavigate}
		case MEnhancedTermJoin:
			runner = &exec.TermJoin{Index: c.Index, Acc: acc, Query: q, ChildCounts: exec.ChildCountIndexed}
		default:
			return 0, storage.AccessStats{}, fmt.Errorf("bench: unknown term method %q", method)
		}
		n := 0
		if err := runner.Run(func(exec.ScoredNode) { n++ }); err != nil {
			return 0, storage.AccessStats{}, err
		}
		return n, acc.Stats, nil
	})
	if err != nil {
		return m, err
	}
	m.Method = method
	return m, nil
}

// RunShardTermMethod times the facade's term search, exhaustive
// TermSearchContext with its scored merge, over an already-built sharded
// database. The store-access stats are what the facade records for the
// call: the change in its tix_access_*_total{op="terms"} counters.
func (c *Corpus) RunShardTermMethod(s *shard.DB, terms []string, complex bool) (Measurement, error) {
	var counters [4]*metrics.Counter
	for i, stat := range []string{"node_reads", "page_reads", "text_reads", "nav_steps"} {
		counters[i] = s.MetricsRegistry().Counter("tix_access_" + stat + `_total{op="terms"}`)
	}
	m, err := timeIt(c.runs(), func() (int, storage.AccessStats, error) {
		var before [4]int64
		for i, ctr := range counters {
			before[i] = ctr.Value()
		}
		res, err := s.TermSearchContext(context.Background(), terms, db.TermSearchOptions{Complex: complex})
		gained := func(i int) int64 { return counters[i].Value() - before[i] }
		return len(res), storage.AccessStats{NodeReads: gained(0), PageReads: gained(1), TextReads: gained(2), NavSteps: gained(3)}, err
	})
	if err != nil {
		return m, err
	}
	m.Method = MTermJoin
	return m, nil
}

// RunPhraseMethod executes PhraseFinder or Comp3 over the phrase.
func (c *Corpus) RunPhraseMethod(method Method, phrase []string) (Measurement, error) {
	m, err := timeIt(c.runs(), func() (int, storage.AccessStats, error) {
		acc := storage.NewAccessor(c.Index.Store())
		n := 0
		emit := func(exec.PhraseMatch) { n++ }
		switch method {
		case MPhraseFinder:
			pf := &exec.PhraseFinder{Index: c.Index, Phrase: phrase}
			if err := pf.Run(emit); err != nil {
				return 0, storage.AccessStats{}, err
			}
		case MComp3:
			c3 := &exec.Comp3{Index: c.Index, Acc: acc, Phrase: phrase}
			if err := c3.Run(emit); err != nil {
				return 0, storage.AccessStats{}, err
			}
		default:
			return 0, storage.AccessStats{}, fmt.Errorf("bench: unknown phrase method %q", method)
		}
		return n, acc.Stats, nil
	})
	if err != nil {
		return m, err
	}
	m.Method = method
	return m, nil
}

// PickInput builds a synthetic scored-tree node stream of the given size
// for the Pick experiment (Sec. 6: input sizes 200 → 55,000 nodes). The
// stream mirrors a projected corpus subtree: a random tree in document
// order with scores attached.
func PickInput(size int, seed int64) []exec.PickNode {
	rng := rand.New(rand.NewSource(seed))
	// Build a random tree shape directly as nested spans.
	nodes := make([]exec.PickNode, 0, size)
	var build func(start uint32, level uint16, budget int) uint32
	build = func(start uint32, level uint16, budget int) uint32 {
		pos := start + 1
		self := len(nodes)
		nodes = append(nodes, exec.PickNode{Ord: int32(self), Start: start, Level: level})
		budget--
		for budget > 0 {
			kids := rng.Intn(4)
			if kids == 0 || level > 12 {
				break
			}
			take := budget / kids
			if take == 0 {
				take = budget
			}
			pos = build(pos, level+1, take)
			budget -= take
		}
		nodes[self].End = pos
		nodes[self].Score = rng.Float64() * 2
		nodes[self].HasScore = rng.Intn(4) != 0
		return pos + 1
	}
	for len(nodes) < size {
		build(uint32(len(nodes)*1000), 0, size-len(nodes))
	}
	nodes = nodes[:size]
	sort.Slice(nodes, func(i, j int) bool { return nodes[i].Start < nodes[j].Start })
	return nodes
}

// RunPick times the stack-based Pick over an input of the given size with
// the parent/child redundancy-elimination criterion.
func RunPick(size int, seed int64) (Measurement, error) {
	input := PickInput(size, seed)
	m, err := timeIt(Runs, func() (int, storage.AccessStats, error) {
		picked := exec.StackPick(input, exec.DefaultPickFuncs(0.8))
		return len(picked), storage.AccessStats{}, nil
	})
	if err != nil {
		return m, err
	}
	m.Method = "Pick"
	return m, nil
}
