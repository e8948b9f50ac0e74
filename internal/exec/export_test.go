package exec

import "repro/internal/index"

// unprunedTopK returns the exhaustive top-k oracle: a TopKTermJoin that
// evaluates every candidate document instead of skipping by bound.
func unprunedTopK(idx *index.Index, q TermQuery, k int) *TopKTermJoin {
	return &TopKTermJoin{Index: idx, Query: q, K: k, disablePruning: true}
}

// UnprunedTopK is unprunedTopK for the external tests, which reach the
// sharded facade.
var UnprunedTopK = unprunedTopK
