// Package exec implements the physical access methods of the paper
// (Sec. 5): the score-generating methods TermJoin (Fig. 11, with its
// Enhanced variant) and PhraseFinder; the score-utilizing stack-based Pick
// (Fig. 12) and Threshold/top-k; the stack-based structural join they build
// on; and the baselines the evaluation compares against — Comp1 and Comp2
// (composites of standard operators, Sec. 6.1), Comp3 (Sec. 6.2) and
// Generalized Meet (the adaptation of Schmidt et al.'s meet operator).
//
// All methods read the database through a storage.Accessor, so experiments
// can report store touches alongside wall-clock time. Methods emit results
// through callbacks; Collect adapts a callback run into a slice for
// convenience.
package exec

import (
	"fmt"

	"repro/internal/index"
	"repro/internal/postings"
	"repro/internal/scoring"
	"repro/internal/storage"
)

// ScoredNode is one scored element produced by a score-generating access
// method: the element (doc, ord) with its relevance score.
type ScoredNode struct {
	Doc   storage.DocID
	Ord   int32
	Score float64
}

// Emit receives scored elements as an access method produces them.
type Emit func(ScoredNode)

// Collect runs f with an emitter that gathers everything into a slice.
func Collect(f func(Emit) error) ([]ScoredNode, error) {
	var out []ScoredNode
	err := f(func(n ScoredNode) { out = append(out, n) })
	return out, err
}

// Scorer computes an element's score from what TermJoin-style methods
// accumulate for it. Exactly one of the two shapes is used per run,
// selected by the Complex flag of the method: simple scorers see only the
// per-term counts; complex scorers additionally see the occurrence buffer
// and child statistics (Sec. 5.1.1, "Complex Scoring Function").
type Scorer interface {
	// Simple computes the simple score from per-term occurrence counts.
	Simple(counts []int) float64
	// Complex computes the complex score from counts, the occurrence
	// buffer, and child statistics.
	Complex(counts []int, occs []scoring.Occ, nonZeroChildren, totalChildren int) float64
}

// DefaultScorer adapts the scoring package's simple and complex scoring
// functions of Sec. 6.1 behind the Scorer interface.
type DefaultScorer struct {
	SimpleFn  scoring.SimpleScorer
	ComplexFn scoring.ComplexScorer
}

// Simple applies the weighted-sum scoring function.
func (d DefaultScorer) Simple(counts []int) float64 { return d.SimpleFn.Score(counts) }

// Complex applies the proximity/child-ratio scoring function.
func (d DefaultScorer) Complex(counts []int, occs []scoring.Occ, nz, total int) float64 {
	return d.ComplexFn.Score(counts, occs, nz, total)
}

// TermQuery is a score-generation request shared by TermJoin and the
// baselines: the query terms (already normalized by the index's tokenizer)
// and the scoring mode.
type TermQuery struct {
	Terms []string
	// Lists, when non-nil, supplies the posting list for each term as a
	// zero-copy view instead of an index lookup — this is how phrase
	// matches from PhraseFinder feed TermJoin as pseudo-terms (Sec. 5.1.2:
	// "counts of phrase occurrences are then used to generate appropriate
	// score values"; see PhrasePostings). Its length must equal len(Terms).
	Lists []index.List
	// Complex selects the complex scoring function (the paper's s flag,
	// inverted: Fig. 11 guards the extra bookkeeping with if(!s)).
	Complex bool
	Scorer  Scorer
}

// validate checks the query's structural invariants shared by every
// term-join-style access method.
func (q *TermQuery) validate(method string) error {
	if len(q.Terms) == 0 {
		return fmt.Errorf("exec: %s requires at least one term", method)
	}
	if q.Scorer == nil {
		return fmt.Errorf("exec: %s requires a scorer", method)
	}
	if q.Lists != nil && len(q.Lists) != len(q.Terms) {
		return fmt.Errorf("exec: %s: %d lists for %d terms", method, len(q.Lists), len(q.Terms))
	}
	return nil
}

// list resolves term i of the query to its posting-list view: explicit
// Lists first, then the index's list for the normalized term.
func (q *TermQuery) list(idx *index.Index, normalized []string, i int) index.List {
	if q.Lists != nil {
		return q.Lists[i]
	}
	return idx.List(normalized[i])
}

// PhrasePostings converts phrase matches, which PhraseFinder emits in
// (doc, pos) order, into a posting list usable as a pseudo-term in
// TermQuery.Lists.
func PhrasePostings(ms []PhraseMatch) index.List {
	out := make([]index.Posting, len(ms))
	for i, m := range ms {
		out[i] = index.Posting{Doc: m.Doc, Node: m.Node, Pos: m.Pos}
	}
	return postings.NewRawList(out)
}

// normalizeTerms maps the query terms through the index tokenizer so that
// callers may pass raw words.
func normalizeTerms(idx *index.Index, terms []string) []string {
	out := make([]string, len(terms))
	for i, t := range terms {
		out[i] = idx.Tokenizer().Normalize(t)
	}
	return out
}
