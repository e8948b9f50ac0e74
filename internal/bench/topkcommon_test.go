package bench

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/exec"
	"repro/internal/index"
	"repro/internal/storage"
	"repro/internal/xmltree"
)

// Top-k over corpus-common words: the shape of every /terms request (the
// server asks for k = MaxResults = 100) and of complex top-k over hot
// words. The golden topk-common table pins a few such requests over the
// gate tier; BenchmarkTopKCommon (`make bench-topk`) times a population
// of them over the gate tier after live churn.

// topkRequest is one top-k term search.
type topkRequest struct {
	terms   []string
	k       int
	complex bool
}

func (r topkRequest) String() string {
	mode := "simple"
	if r.complex {
		mode = "complex"
	}
	return fmt.Sprintf("%s k=%d %s", mode, r.k, strings.Join(r.terms, " "))
}

// run evaluates r as db.SearchTerms does and returns the operator, whose
// counters describe the run, with the results.
func (r topkRequest) run(idx *index.Index) (*exec.TopKTermJoin, []exec.ScoredNode, error) {
	tk := &exec.TopKTermJoin{Index: idx, K: r.k,
		Query: exec.TermQuery{Terms: r.terms, Complex: r.complex, Scorer: exec.DefaultScorer{}}}
	res, err := tk.Run()
	return tk, res, err
}

// topkCommonRows are the golden topk-common table's requests over the
// gate tier, which plants no control term for them: complex k = 20 over
// three of the hottest background words, each paired with the dense
// control term, and the /terms shape (simple, k = 100) over one common
// word.
var topkCommonRows = []topkRequest{
	{terms: []string{"w000001", "jadense"}, k: 20, complex: true},
	{terms: []string{"w000002", "jadense"}, k: 20, complex: true},
	{terms: []string{"w000003", "jadense"}, k: 20, complex: true},
	{terms: []string{"w000001"}, k: 100},
}

// snapshotTopKCommon runs each topk-common request once for its counts
// and, outside -race, again under testing.AllocsPerRun.
func snapshotTopKCommon(t *testing.T, idx *index.Index) goldenTable {
	t.Helper()
	gt := goldenTable{ID: "topk-common"}
	for _, r := range topkCommonRows {
		tk, res, err := r.run(idx)
		if err != nil {
			t.Fatal(err)
		}
		gr := goldenRow{
			Label:         r.String(),
			Results:       map[string]int{string(MTopKTermJoin): len(res)},
			Stats:         map[string]StatsJSON{string(MTopKTermJoin): statsJSON(tk.AccessStats())},
			DocsEvaluated: tk.DocsEvaluated,
			BlocksSkipped: tk.BlocksSkipped,
		}
		if !raceEnabled {
			gr.Allocs = map[string]float64{string(MTopKTermJoin): testing.AllocsPerRun(5, func() { _, _, _ = r.run(idx) })}
		}
		gt.Rows = append(gt.Rows, gr)
	}
	return gt
}

// topkCommonPopulation draws the replay's requests the way the end-to-end
// benchmark draws the top-k half of wire-churn's cached population: five
// /terms searches (one or two words, simple scoring, k = 100) to every
// three complex top-k searches over a word pair with k in [5, 24]. A word
// is one of the gate tier's dense control terms or one of the 40 hottest
// background words, with equal odds.
func topkCommonPopulation() []topkRequest {
	rng := rand.New(rand.NewSource(1))
	control := []string{"jadense", "jbdense", "pcdense"}
	word := func() string {
		if rng.Intn(2) == 0 {
			return control[rng.Intn(len(control))]
		}
		return fmt.Sprintf("w%06d", 1+rng.Intn(40))
	}
	pop := make([]topkRequest, 256)
	for i := range pop {
		if i%8 < 5 {
			terms := []string{word()}
			if rng.Intn(2) == 0 {
				terms = append(terms, word())
			}
			pop[i] = topkRequest{terms: terms, k: 100}
			continue
		}
		pop[i] = topkRequest{terms: []string{word(), word()}, k: 5 + rng.Intn(20), complex: true}
	}
	return pop
}

// churnedGateIndex serves the gate tier from a live index after 600
// writes in wire-churn's mix: of every ten, six adds, three updates (a
// delete plus an add) and one delete, each written document eight
// paragraphs of fifty background words. Background folds are waited out
// after every write, so the snapshot's layering is deterministic.
func churnedGateIndex(tb testing.TB, seed int64) *index.Index {
	tb.Helper()
	spec, err := HotpathTier("gate")
	if err != nil {
		tb.Fatal(err)
	}
	flat, _, err := HotpathCorpus(spec, seed)
	if err != nil {
		tb.Fatal(err)
	}
	live := index.LiveFromIndex(flat, index.LiveConfig{})
	s := flat.Store()
	rng := rand.New(rand.NewSource(seed))
	var written []storage.DocID
	add := func() {
		var sb strings.Builder
		sb.WriteString("<doc>")
		for p := 0; p < 8; p++ {
			sb.WriteString("<p>")
			for w := 0; w < 50; w++ {
				fmt.Fprintf(&sb, "w%06d ", rng.Intn(2000))
			}
			sb.WriteString("</p>")
		}
		sb.WriteString("</doc>")
		root, err := xmltree.ParseString(sb.String())
		if err != nil {
			tb.Fatal(err)
		}
		id, err := s.AddTree(fmt.Sprintf("churn%04d.xml", s.NumDocs()), root)
		if err == nil {
			err = live.IndexDoc(s.Doc(id))
		}
		if err != nil {
			tb.Fatal(err)
		}
		written = append(written, id)
	}
	remove := func() {
		j := rng.Intn(len(written))
		live.Delete(written[j])
		written[j] = written[len(written)-1]
		written = written[:len(written)-1]
	}
	for w := 0; w < 600; w++ {
		switch x := rng.Intn(10); {
		case x < 6 || len(written) == 0:
			add()
		case x < 9:
			remove()
			add()
		default:
			remove()
		}
		live.WaitCompaction()
	}
	return live.Snapshot()
}

// BenchmarkTopKCommon replays topkCommonPopulation over churnedGateIndex,
// one request per op, cycling through the population: all of it, then
// the /terms and the complex requests alone. Besides ns/op and allocs/op
// it reports docs/req, the population's mean DocsEvaluated, from one
// untimed pass.
//
//	go test ./internal/bench -run '^$' -bench TopKCommon
func BenchmarkTopKCommon(b *testing.B) {
	idx := churnedGateIndex(b, 42)
	pop := topkCommonPopulation()
	for _, sub := range []struct {
		name string
		keep func(topkRequest) bool
	}{
		{"all", func(topkRequest) bool { return true }},
		{"terms", func(r topkRequest) bool { return !r.complex }},
		{"complex", func(r topkRequest) bool { return r.complex }},
	} {
		var reqs []topkRequest
		for _, r := range pop {
			if sub.keep(r) {
				reqs = append(reqs, r)
			}
		}
		b.Run(sub.name, func(b *testing.B) { benchTopK(b, idx, reqs) })
	}
}

// BenchmarkTopKSparse times wire-cold's two /terms shapes over the gate
// tier's sparse join pair (each term in one document in fifty, below the
// bitmap density): simple scoring at k = 100, the server's MaxResults, and
// complex scoring at k = 10. It reports what BenchmarkTopKCommon does.
//
//	go test ./internal/bench -run '^$' -bench TopKSparse
func BenchmarkTopKSparse(b *testing.B) {
	spec, err := HotpathTier("gate")
	if err != nil {
		b.Fatal(err)
	}
	idx, _, err := HotpathCorpus(spec, 42)
	if err != nil {
		b.Fatal(err)
	}
	pair := []string{"jasparse", "jbsparse"}
	b.Run("terms", func(b *testing.B) { benchTopK(b, idx, []topkRequest{{terms: pair, k: 100}}) })
	b.Run("complex", func(b *testing.B) { benchTopK(b, idx, []topkRequest{{terms: pair, k: 10, complex: true}}) })
}

// benchTopK runs reqs over idx, one request per op in turn, and reports
// docs/req, their mean DocsEvaluated, from one untimed pass.
func benchTopK(b *testing.B, idx *index.Index, reqs []topkRequest) {
	docs := 0
	for _, r := range reqs {
		tk, _, err := r.run(idx)
		if err != nil {
			b.Fatal(err)
		}
		docs += tk.DocsEvaluated
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := reqs[i%len(reqs)].run(idx); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(docs)/float64(len(reqs)), "docs/req")
}

// TestTopKCommonLiveAllocs pins the allocations of one two-term complex
// request over a live snapshot (the churned gate tier): reading each
// term's list over the live layers builds one parts slice, which the
// union keeps rather than copying, so the request allocates at most 18
// times.
func TestTopKCommonLiveAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not measured under -race")
	}
	idx := churnedGateIndex(t, 42)
	r := topkRequest{terms: []string{"jadense", "jbdense"}, k: 20, complex: true}
	if _, _, err := r.run(idx); err != nil {
		t.Fatal(err)
	}
	if got := testing.AllocsPerRun(20, func() { _, _, _ = r.run(idx) }); got > 18 {
		t.Fatalf("two-term complex top-k over a live snapshot: %.0f allocations, want at most 18", got)
	}
}
