package exec

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/storage"
)

func TestTopKBasic(t *testing.T) {
	tk := NewTopK(3)
	for i, s := range []float64{1, 5, 3, 9, 2, 7} {
		tk.Offer(ScoredNode{Ord: int32(i), Score: s})
	}
	got := tk.Results()
	if len(got) != 3 {
		t.Fatalf("results = %d", len(got))
	}
	if got[0].Score != 9 || got[1].Score != 7 || got[2].Score != 5 {
		t.Errorf("top3 = %v", got)
	}
}

func TestTopKFewerThanK(t *testing.T) {
	tk := NewTopK(10)
	tk.Offer(ScoredNode{Ord: 1, Score: 2})
	tk.Offer(ScoredNode{Ord: 2, Score: 1})
	got := tk.Results()
	if len(got) != 2 || got[0].Score != 2 {
		t.Errorf("results = %v", got)
	}
}

func TestTopKZero(t *testing.T) {
	tk := NewTopK(0)
	tk.Offer(ScoredNode{Score: 5})
	if len(tk.Results()) != 0 {
		t.Errorf("k=0 should keep nothing")
	}
}

func TestTopKEmitAdapter(t *testing.T) {
	tk := NewTopK(1)
	emit := tk.Emit()
	emit(ScoredNode{Ord: 1, Score: 1})
	emit(ScoredNode{Ord: 2, Score: 2})
	got := tk.Results()
	if len(got) != 1 || got[0].Ord != 2 {
		t.Errorf("results = %v", got)
	}
}

func TestQuickTopKMatchesSort(t *testing.T) {
	f := func(seed int64, kRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(200)
		k := int(kRaw%20) + 1
		scores := make([]float64, n)
		tk := NewTopK(k)
		for i := range scores {
			scores[i] = float64(rng.Intn(50)) // duplicates likely
			tk.Offer(ScoredNode{Ord: int32(i), Score: scores[i]})
		}
		sort.Sort(sort.Reverse(sort.Float64Slice(scores)))
		got := tk.Results()
		want := k
		if n < k {
			want = n
		}
		if len(got) != want {
			return false
		}
		for i, g := range got {
			if g.Score != scores[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestSortStability pins SortRanked's tie-break, which the facade's merged
// results depend on: equal scores order by document, then ordinal.
func TestSortStability(t *testing.T) {
	got := []ScoredNode{{Doc: 1, Ord: 5, Score: 2}, {Doc: 0, Ord: 9, Score: 2}, {Doc: 0, Ord: 1, Score: 2}}
	SortRanked(got)
	want := []ScoredNode{{Doc: 0, Ord: 1, Score: 2}, {Doc: 0, Ord: 9, Score: 2}, {Doc: 1, Ord: 5, Score: 2}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("tie-break order = %v", got)
	}
	rng := rand.New(rand.NewSource(2))
	big := make([]ScoredNode, 100)
	for i := range big {
		big[i] = ScoredNode{Ord: int32(i), Score: float64(rng.Intn(20))}
	}
	rng.Shuffle(len(big), func(i, j int) { big[i], big[j] = big[j], big[i] })
	SortRanked(big)
	if !sort.SliceIsSorted(big, func(i, j int) bool {
		return big[i].Score > big[j].Score || (big[i].Score == big[j].Score && big[i].Ord < big[j].Ord)
	}) {
		t.Errorf("not sorted by score desc, ordinal asc")
	}
}

func TestFilterMinScore(t *testing.T) {
	var kept []ScoredNode
	emit := FilterMinScore(2.0, func(n ScoredNode) { kept = append(kept, n) })
	emit(ScoredNode{Ord: 1, Score: 1.0})
	emit(ScoredNode{Ord: 2, Score: 2.0}) // strictly greater required
	emit(ScoredNode{Ord: 3, Score: 2.5})
	if len(kept) != 1 || kept[0].Ord != 3 {
		t.Errorf("kept = %v", kept)
	}
}

func TestScoreHistogram(t *testing.T) {
	var nodes []ScoredNode
	for i := 0; i < 100; i++ {
		nodes = append(nodes, ScoredNode{Ord: int32(i), Score: float64(i)})
	}
	h := NewScoreHistogram(nodes, 10)
	if h.Total() != 100 {
		t.Fatalf("total = %d", h.Total())
	}
	// Threshold for the top 10% should be around 90.
	th := h.ThresholdForTopFraction(0.1)
	if th < 80 || th > 95 {
		t.Errorf("top-10%% threshold = %f, want ≈ 90", th)
	}
	// Count above that threshold covers roughly the top bucket.
	if got := h.CountAbove(th); got < 5 || got > 25 {
		t.Errorf("CountAbove = %d", got)
	}
	if h.ThresholdForTopFraction(1.5) != 0 {
		t.Errorf("frac>1 should return min")
	}
	if h.ThresholdForTopFraction(0) != 99 {
		t.Errorf("frac<=0 should return max")
	}
}

func TestScoreHistogramDegenerate(t *testing.T) {
	h := NewScoreHistogram(nil, 8)
	if h.Total() != 0 || h.CountAbove(1) != 0 {
		t.Errorf("empty histogram misbehaves")
	}
	// All-equal scores land in one bucket.
	same := []ScoredNode{{Score: 3}, {Score: 3}, {Score: 3}}
	h = NewScoreHistogram(same, 4)
	if h.CountAbove(3) != 3 {
		t.Errorf("equal scores: CountAbove = %d", h.CountAbove(3))
	}
	if th := h.ThresholdForTopFraction(0.5); th != 3 {
		t.Errorf("equal scores threshold = %f", th)
	}
	// Bucket count below 1 is clamped.
	h = NewScoreHistogram(same, 0)
	if h.Total() != 3 {
		t.Errorf("clamped bucket histogram broken")
	}
}

func TestHistogramThresholdApproximatesExactQuantile(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	var nodes []ScoredNode
	for i := 0; i < 5000; i++ {
		nodes = append(nodes, ScoredNode{Ord: int32(i), Score: rng.Float64() * 10})
	}
	h := NewScoreHistogram(nodes, 100)
	for _, frac := range []float64{0.05, 0.1, 0.25, 0.5} {
		th := h.ThresholdForTopFraction(frac)
		// Exact count of nodes >= th should be within a bucket's worth of
		// the requested fraction.
		n := 0
		for _, nd := range nodes {
			if nd.Score >= th {
				n++
			}
		}
		want := frac * float64(len(nodes))
		if float64(n) < want*0.8 || float64(n) > want*1.3+float64(len(nodes))/100 {
			t.Errorf("frac %.2f: threshold %f selects %d nodes, want ≈ %.0f", frac, th, n, want)
		}
	}
}

// TestTopKOfferAllocatesNothing: once the heap holds k elements, Offer
// neither boxes nor grows anything, whether the element displaces the
// k-th (every offer of the first run) or not (every offer of the second).
func TestTopKOfferAllocatesNothing(t *testing.T) {
	tk := NewTopK(100)
	for i := 0; i < 100; i++ {
		tk.Offer(ScoredNode{Ord: int32(i), Score: float64(i)})
	}
	for _, step := range []float64{1, -1} {
		score := float64(1000 * step)
		allocs := testing.AllocsPerRun(1000, func() {
			score += step
			tk.Offer(ScoredNode{Doc: storage.DocID(score), Score: score})
		})
		if allocs != 0 {
			t.Errorf("Offer allocates %.2f times per call, want 0", allocs)
		}
	}
}
