package exec

import "sort"

// RankedBefore reports whether a ranks ahead of b in the result ordering
// contract shared by every ranked entry point: score descending, then
// document ascending, then start ordinal ascending. Because (Doc, Ord)
// identifies an element uniquely, the order is total, which makes any
// top-k selection a pure function of the result *set* — independent of
// emission order, and therefore identical across sequential, parallel and
// sharded evaluation.
func RankedBefore(a, b ScoredNode) bool {
	if a.Score != b.Score {
		return a.Score > b.Score
	}
	if a.Doc != b.Doc {
		return a.Doc < b.Doc
	}
	return a.Ord < b.Ord
}

// SortRanked sorts nodes in place by the RankedBefore contract.
func SortRanked(nodes []ScoredNode) {
	sort.Slice(nodes, func(i, j int) bool { return RankedBefore(nodes[i], nodes[j]) })
}

// TopK retains the k best elements of a scored-node stream under the
// RankedBefore total order — the physical evaluation of the Threshold
// operator's K condition, using the bounded-heap technique the paper cites
// for global ranking [8, 5]. Ties at the k-th score are broken by the same
// (doc, ord) contract, so the retained set does not depend on the order
// elements were offered. Offer allocates only to grow the heap towards k.
// The zero value is unusable; create with NewTopK.
type TopK struct {
	k int
	h []ScoredNode // heap under rankedAfter: h[0] is the first to be displaced
}

// NewTopK returns a TopK keeping the k best elements.
func NewTopK(k int) *TopK {
	return &TopK{k: k}
}

// Offer considers one element.
func (t *TopK) Offer(n ScoredNode) {
	switch {
	case len(t.h) < t.k:
		t.h = append(t.h, n)
		siftUp(t.h, len(t.h)-1, rankedAfter)
	case t.k > 0 && RankedBefore(n, t.h[0]):
		t.h[0] = n
		siftDown(t.h, 0, rankedAfter)
	}
}

// rankedAfter orders TopK's heap so that its root is the retained element
// that ranks last.
func rankedAfter(a, b ScoredNode) bool { return RankedBefore(b, a) }

// last returns the retained element that ranks last — the k-th best, the
// one the next better offer displaces, whose score is the pruning cut-off
// — and false while fewer than k elements are retained.
func (t *TopK) last() (ScoredNode, bool) {
	if t.k <= 0 || len(t.h) < t.k {
		return ScoredNode{}, false
	}
	return t.h[0], true
}

// Results returns the retained elements in the RankedBefore order.
func (t *TopK) Results() []ScoredNode {
	out := append([]ScoredNode(nil), t.h...)
	SortRanked(out)
	return out
}

// Emit returns an Emit that feeds the TopK, for composing with the
// score-generating access methods.
func (t *TopK) Emit() Emit {
	return t.Offer
}

// siftUp restores the heap order of h after h[i] was set or appended: the
// root of h is the element that first orders ahead of all the others.
func siftUp[T any](h []T, i int, first func(a, b T) bool) {
	for i > 0 {
		p := (i - 1) / 2
		if !first(h[i], h[p]) {
			return
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
}

// siftDown restores the heap order of h after h[i] was replaced.
func siftDown[T any](h []T, i int, first func(a, b T) bool) {
	for {
		c := 2*i + 1
		if c >= len(h) {
			return
		}
		if r := c + 1; r < len(h) && first(h[r], h[c]) {
			c = r
		}
		if !first(h[c], h[i]) {
			return
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
}

// heapify orders all of h as a heap under first.
func heapify[T any](h []T, first func(a, b T) bool) {
	for i := len(h)/2 - 1; i >= 0; i-- {
		siftDown(h, i, first)
	}
}

// popHeap swaps the root of the heap h to its end and returns the heap
// without it.
func popHeap[T any](h []T, first func(a, b T) bool) []T {
	n := len(h) - 1
	h[0], h[n] = h[n], h[0]
	h = h[:n]
	siftDown(h, 0, first)
	return h
}

// FilterMinScore returns an Emit that forwards only elements with score
// strictly greater than min — the Threshold operator's V condition.
func FilterMinScore(min float64, next Emit) Emit {
	return func(n ScoredNode) {
		if n.Score > min {
			next(n)
		}
	}
}

// AboveMinScore returns the prefix of ranked (best-first under
// RankedBefore) whose scores are strictly greater than min; min <= 0 keeps
// everything, as FilterMinScore's callers do. Because the order is score
// descending, the survivors of the V condition are always a prefix, so
// applying it after a top-k selection equals applying it before.
func AboveMinScore(ranked []ScoredNode, min float64) []ScoredNode {
	if min <= 0 {
		return ranked
	}
	n := sort.Search(len(ranked), func(i int) bool { return ranked[i].Score <= min })
	return ranked[:n]
}

// ScoreHistogram is the auxiliary data Sec. 5.3 proposes for Pick: an
// equi-width histogram of data IR-node scores that lets users (and the
// Pick evaluator) turn a fraction — "the top 10% most relevant nodes" —
// into a concrete relevance-score threshold without sorting the input.
type ScoreHistogram struct {
	min, max float64
	buckets  []int
	total    int
}

// NewScoreHistogram builds a histogram with the given number of buckets
// over the scores of nodes. At least one bucket is always allocated.
func NewScoreHistogram(nodes []ScoredNode, buckets int) *ScoreHistogram {
	if buckets < 1 {
		buckets = 1
	}
	h := &ScoreHistogram{buckets: make([]int, buckets)}
	if len(nodes) == 0 {
		return h
	}
	h.min, h.max = nodes[0].Score, nodes[0].Score
	for _, n := range nodes {
		if n.Score < h.min {
			h.min = n.Score
		}
		if n.Score > h.max {
			h.max = n.Score
		}
	}
	for _, n := range nodes {
		h.buckets[h.bucket(n.Score)]++
		h.total++
	}
	return h
}

func (h *ScoreHistogram) bucket(s float64) int {
	if h.max == h.min {
		return 0
	}
	b := int(float64(len(h.buckets)) * (s - h.min) / (h.max - h.min))
	if b >= len(h.buckets) {
		b = len(h.buckets) - 1
	}
	if b < 0 {
		b = 0
	}
	return b
}

// Total returns the number of recorded scores.
func (h *ScoreHistogram) Total() int { return h.total }

// ThresholdForTopFraction returns a score threshold such that
// approximately frac of the recorded nodes score at or above it (resolution
// limited by the bucket width). frac outside (0,1] returns the minimum.
func (h *ScoreHistogram) ThresholdForTopFraction(frac float64) float64 {
	if h.total == 0 || frac <= 0 {
		return h.max
	}
	if frac >= 1 {
		return h.min
	}
	want := int(frac * float64(h.total))
	if want < 1 {
		want = 1
	}
	seen := 0
	for i := len(h.buckets) - 1; i >= 0; i-- {
		seen += h.buckets[i]
		if seen >= want {
			width := (h.max - h.min) / float64(len(h.buckets))
			return h.min + float64(i)*width
		}
	}
	return h.min
}

// CountAbove returns the number of recorded scores in buckets at or above
// the bucket containing s — the estimate Pick uses to size its candidate
// set without a scan.
func (h *ScoreHistogram) CountAbove(s float64) int {
	if h.total == 0 {
		return 0
	}
	n := 0
	for i := h.bucket(s); i < len(h.buckets); i++ {
		n += h.buckets[i]
	}
	return n
}
