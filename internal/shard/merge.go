package shard

import (
	"repro/internal/exec"
)

// The merge step is where sharded evaluation re-establishes the
// single-store ordering contract. Every per-shard run arrives already
// sorted (workers sort or TopK their own output), so the merger only
// interleaves sorted runs. Shard counts are small, so a linear scan of
// the run heads per output element beats a heap on constant factors and
// stays obviously deterministic.

// kwayMerge interleaves sorted runs under less. When two heads compare
// equal it takes the lower-indexed run first — irrelevant for the scored
// merge (the RankedBefore order is total over distinct elements) but it
// keeps the function deterministic for any caller.
func kwayMerge[T any](runs [][]T, less func(a, b T) bool) []T {
	total := 0
	live := 0
	for _, r := range runs {
		total += len(r)
		if len(r) > 0 {
			live++
		}
	}
	if live <= 1 {
		for _, r := range runs {
			if len(r) > 0 {
				return r
			}
		}
		return nil
	}
	out := make([]T, 0, total)
	heads := make([]int, len(runs))
	for len(out) < total {
		best := -1
		for i, r := range runs {
			if heads[i] >= len(r) {
				continue
			}
			if best == -1 || less(r[heads[i]], runs[best][heads[best]]) {
				best = i
			}
		}
		out = append(out, runs[best][heads[best]])
		heads[best]++
	}
	return out
}

// mergeRanked merges scored runs under the exec.RankedBefore contract:
// score descending, then global document ascending, then ordinal
// ascending.
func mergeRanked(runs [][]exec.ScoredNode) []exec.ScoredNode {
	return kwayMerge(runs, exec.RankedBefore)
}

// mergePhrase merges phrase-match runs into (document, position) order,
// the order the monolithic PhraseFinder emits.
func mergePhrase(runs [][]exec.PhraseMatch) []exec.PhraseMatch {
	return kwayMerge(runs, func(a, b exec.PhraseMatch) bool {
		if a.Doc != b.Doc {
			return a.Doc < b.Doc
		}
		if a.Pos != b.Pos {
			return a.Pos < b.Pos
		}
		return a.Node < b.Node
	})
}
