package bench

import (
	"fmt"
	"sort"

	"repro/internal/exec"
	"repro/internal/storage"
)

// Ablations regenerates the design-choice ablations of DESIGN.md §5 at the
// corpus's full scale: the child-count index vs store navigation, and the
// histogram-assisted threshold vs an exact sort quantile.
func (c *Corpus) Ablations() (*Table, error) {
	t := &Table{
		ID:      "ablation",
		Caption: "Design-choice ablations (seconds)",
		Columns: []Method{"Optimized", "Ablated"},
	}
	a, b, err := c.PairTerms(1000)
	if err != nil {
		return nil, err
	}
	terms := []string{a, b}

	// 1. Child-count index vs navigation (complex scoring).
	row := Row{Label: "child-count"}
	for _, mode := range []exec.ChildCountMode{exec.ChildCountIndexed, exec.ChildCountNavigate} {
		m, err := timeIt(c.runs(), func() (int, storage.AccessStats, error) {
			acc := storage.NewAccessor(c.Index.Store())
			tj := &exec.TermJoin{
				Index:       c.Index,
				Acc:         acc,
				Query:       exec.TermQuery{Terms: terms, Complex: true, Scorer: exec.DefaultScorer{}},
				ChildCounts: mode,
			}
			n := 0
			if err := tj.Run(func(exec.ScoredNode) { n++ }); err != nil {
				return 0, storage.AccessStats{}, err
			}
			return n, acc.Stats, nil
		})
		if err != nil {
			return nil, err
		}
		name := Method("Optimized")
		if mode == exec.ChildCountNavigate {
			name = "Ablated"
		}
		m.Method = name
		row.Cells = append(row.Cells, Cell{Method: name, M: m})
	}
	t.Rows = append(t.Rows, row)

	// 2. Histogram threshold vs exact quantile over the scored output.
	tjOut, err := exec.RunTermJoin(c.Index, exec.TermQuery{Terms: terms, Scorer: exec.DefaultScorer{}}, exec.ChildCountNavigate)
	if err != nil {
		return nil, err
	}
	row = Row{Label: "pick-threshold", Extra: fmt.Sprintf("scores=%d", len(tjOut))}
	mh, err := timeIt(c.runs(), func() (int, storage.AccessStats, error) {
		h := exec.NewScoreHistogram(tjOut, 64)
		_ = h.ThresholdForTopFraction(0.05)
		return h.Total(), storage.AccessStats{}, nil
	})
	if err != nil {
		return nil, err
	}
	mh.Method = "Optimized"
	row.Cells = append(row.Cells, Cell{Method: "Optimized", M: mh})
	me, err := timeIt(c.runs(), func() (int, storage.AccessStats, error) {
		scores := make([]float64, len(tjOut))
		for i, n := range tjOut {
			scores[i] = n.Score
		}
		sort.Float64s(scores)
		_ = scores[len(scores)-1-len(scores)/20]
		return len(scores), storage.AccessStats{}, nil
	})
	if err != nil {
		return nil, err
	}
	me.Method = "Ablated"
	row.Cells = append(row.Cells, Cell{Method: "Ablated", M: me})
	t.Rows = append(t.Rows, row)
	return t, nil
}
