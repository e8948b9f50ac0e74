package shard

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"repro/internal/metrics"
	"repro/internal/server"
	"repro/internal/synth"
	"repro/internal/xmltree"
)

// The reply-cache coherence tests. The cache is consulted by the server,
// so each drives a server.Handler() over a cached facade and compares its
// reply bytes with those of a handler over an uncached twin; writes go to
// the facades directly.

// A cached read the term-keyed tests issue: /terms or /phrase over terms.
type cachedRead struct {
	name   string
	terms  []string
	phrase bool
	topK   int
	cplx   bool
}

// do posts r to h and returns the status and the reply bytes.
func (r cachedRead) do(h http.Handler) (int, []byte) {
	path, body := "/terms", any(server.TermsRequest{Terms: r.terms, TopK: r.topK, Complex: r.cplx})
	if r.phrase {
		path, body = "/phrase", server.PhraseRequest{Phrase: r.terms}
	}
	b, err := json.Marshal(body)
	if err != nil {
		panic(err)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(b)))
	return rec.Code, rec.Body.Bytes()
}

// run posts r to h and returns its reply, failing the test on a non-200.
func (r cachedRead) run(t *testing.T, h http.Handler) []byte {
	t.Helper()
	code, b := r.do(h)
	if code != http.StatusOK {
		t.Fatalf("%s: status %d: %s", r.name, code, b)
	}
	return b
}

// handler serves d through the production handler tree.
func handler(d *DB) http.Handler { return server.New(d).Handler() }

// ctlDoc is a document holding the control terms (with "ctla ctlb"
// adjacent) when ctl is set, and only other words otherwise.
func ctlDoc(i int, ctl bool) string {
	if ctl {
		return fmt.Sprintf(`<d><t>ctla ctlb w%d</t><s>ctla again</s></d>`, i%5)
	}
	return fmt.Sprintf(`<d><t>plain w%d</t><s>other words</s></d>`, i%5)
}

// TestCacheKeysFollowTheirOwnTerms checks that /terms and /phrase entries
// are keyed by the generations of their own terms: writes to documents
// without those terms and a compaction leave every entry a hit, and each
// write to a document holding them turns every entry into a miss whose
// recomputed reply equals an uncached twin's byte for byte.
func TestCacheKeysFollowTheirOwnTerms(t *testing.T) {
	for _, shards := range []int{1, 3} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			checkTermKeyedCache(t, shards)
		})
	}
}

func checkTermKeyedCache(t *testing.T, shards int) {
	cached := New(Options{Shards: shards, CacheBytes: 1 << 20, Metrics: metrics.NewRegistry()})
	twin := New(Options{Shards: shards, Metrics: metrics.NewRegistry()})
	both := func(f func(d *DB) error) {
		t.Helper()
		for _, d := range []*DB{cached, twin} {
			if err := f(d); err != nil {
				t.Fatal(err)
			}
		}
	}
	for i := 0; i < 12; i++ {
		both(func(d *DB) error { return d.LoadString(fmt.Sprintf("base%02d.xml", i), ctlDoc(i, i%2 == 0)) })
	}
	both(func(d *DB) error { d.Warm(); return nil })
	hc, ht := handler(cached), handler(twin)

	reads := []cachedRead{
		{name: "terms ctla", terms: []string{"ctla"}},
		{name: "terms CTLA", terms: []string{"CTLA"}},
		{name: "phrase ctla ctlb", terms: []string{"ctla", "ctlb"}, phrase: true},
	}
	c := cached.ResultCache()
	// expect issues every read on the cached facade and requires each to
	// be a hit (or each a miss) and to equal the twin's reply.
	expect := func(step string, hit bool) {
		t.Helper()
		for _, r := range reads {
			before := c.Stats()
			got := r.run(t, hc)
			after := c.Stats()
			if gotHit := after.Hits == before.Hits+1 && after.Misses == before.Misses; gotHit != hit {
				t.Errorf("%s: %s: hit = %v, want %v (hits %d -> %d, misses %d -> %d)",
					step, r.name, gotHit, hit, before.Hits, after.Hits, before.Misses, after.Misses)
			}
			if want := r.run(t, ht); string(got) != string(want) {
				t.Errorf("%s: %s: cached reply differs from the uncached twin:\n got  %s\n want %s", step, r.name, got, want)
			}
		}
	}
	expect("warm", false)
	expect("warmed", true)

	unrelated := []struct {
		step string
		f    func(d *DB) error
	}{
		{"add without the terms", func(d *DB) error { return d.Add("plain-add.xml", ctlDoc(1, false)) }},
		{"update without the terms", func(d *DB) error { return d.Update("base01.xml", ctlDoc(3, false)) }},
		{"delete without the terms", func(d *DB) error { return d.Delete("base03.xml") }},
		{"compaction", func(d *DB) error { d.CompactNow(); d.WaitCompaction(); return nil }},
	}
	for _, u := range unrelated {
		both(u.f)
		expect(u.step, true)
	}

	related := []struct {
		step string
		f    func(d *DB) error
	}{
		{"add holding ctla", func(d *DB) error { return d.Add("ctl-add.xml", ctlDoc(2, true)) }},
		{"update from holding ctla to not", func(d *DB) error { return d.Update("base04.xml", ctlDoc(4, false)) }},
		{"delete holding ctla", func(d *DB) error { return d.Delete("base06.xml") }},
	}
	for _, r := range related {
		both(r.f)
		expect(r.step, false)
		expect(r.step+", repeated", true)
	}
	if st := c.Stats(); st.GenMiss != 0 {
		t.Errorf("genmiss = %d, want 0", st.GenMiss)
	}
}

// TestCacheCoherentUnderConcurrentWrites runs term-keyed reads through a
// server over a cached 3-shard facade while one writer adds, updates and deletes
// documents with and without the read terms. Once the writer is done,
// every read, computed and then served from the cache, must equal an
// uncached twin that saw the same writes. Run under -race by `make
// stress`.
func TestCacheCoherentUnderConcurrentWrites(t *testing.T) {
	cached := New(Options{Shards: 3, CacheBytes: 1 << 20, Metrics: metrics.NewRegistry()})
	twin := New(Options{Shards: 3, Metrics: metrics.NewRegistry()})
	for _, d := range []*DB{cached, twin} {
		for i := 0; i < 12; i++ {
			if err := d.LoadString(fmt.Sprintf("base%02d.xml", i), ctlDoc(i, i%2 == 0)); err != nil {
				t.Fatal(err)
			}
		}
		d.Warm()
	}
	hc, ht := handler(cached), handler(twin)
	reads := []cachedRead{
		{name: "terms ctla", terms: []string{"ctla"}},
		{name: "terms w1 w2", terms: []string{"w1", "w2"}, topK: 5, cplx: true},
		{name: "terms plain", terms: []string{"plain"}},
		{name: "phrase ctla ctlb", terms: []string{"ctla", "ctlb"}, phrase: true},
	}
	// The writes, in order: the twin replays them after the run.
	var writes []func(d *DB) error
	for i := 0; i < 150; i++ {
		name := fmt.Sprintf("w%03d.xml", i/3)
		src := ctlDoc(i, i%4 == 0)
		switch i % 3 {
		case 0:
			writes = append(writes, func(d *DB) error { return d.Add(name, src) })
		case 1:
			writes = append(writes, func(d *DB) error { return d.Update(name, src) })
		default:
			if i%2 == 0 {
				writes = append(writes, func(d *DB) error { return d.Delete(name) })
			}
		}
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				rd := reads[i%len(reads)]
				if code, b := rd.do(hc); code != http.StatusOK {
					t.Errorf("%s: status %d: %s", rd.name, code, b)
					return
				}
			}
		}()
	}
	for _, w := range writes {
		if err := w(cached); err != nil {
			t.Error(err)
			break
		}
	}
	close(stop)
	wg.Wait()
	// One more write, to a document holding ctla, after every read is
	// cached: its entries must not be served again.
	for _, r := range reads {
		r.run(t, hc)
	}
	writes = append(writes, func(d *DB) error { return d.Delete("base00.xml") })
	if err := writes[len(writes)-1](cached); err != nil {
		t.Fatal(err)
	}
	for _, w := range writes {
		if err := w(twin); err != nil {
			t.Fatal(err)
		}
	}
	cached.WaitCompaction()
	c := cached.ResultCache()
	for _, r := range reads {
		want := r.run(t, ht)
		for pass := 0; pass < 2; pass++ {
			if got := r.run(t, hc); string(got) != string(want) {
				t.Errorf("%s pass %d: cached reply differs from the uncached twin:\n got  %s\n want %s", r.name, pass, got, want)
			}
		}
	}
	if st := c.Stats(); st.GenMiss != 0 || st.Hits == 0 {
		t.Errorf("cache stats %+v: want hits and genmiss 0", st)
	}
}

// TestCacheHitRatioUnderChurn replays a seeded history of wire-churn's
// shape on one goroutine, reads through a server over a cached facade
// and writes to the facade: 90% zipf reads over a 512-request population of
// /terms, complex top-k and /phrase requests on the planted control terms
// and the 40 hottest background words, and 10% writes (add 6, update 3,
// delete 1) of 400-word documents over 2,000 background words. Keyed by
// the corpus generation, every write made every entry unreachable and the
// hit ratio was about 0.28; keyed by the reads' own terms it must stay at
// or above 0.55, with no stale-generation lookup.
func TestCacheHitRatioUnderChurn(t *testing.T) {
	const docs = 2000
	d := New(Options{Shards: 1, Strategy: RoundRobin, CacheBytes: 8 << 20, Metrics: metrics.NewRegistry()})
	cfg := synth.DefaultStreamConfig(docs)
	cfg.ControlTerms = map[string]int{"ctla": docs * 3 / 5, "ctlb": docs * 2 / 5, "ctlc": docs / 5}
	cfg.Phrases = []synth.PhraseSpec{{T1: "ctla", T2: "ctlb", Together: docs / 200}}
	if _, err := synth.GenerateStream(cfg, func(i int, root *xmltree.Node) error {
		return d.LoadTree(fmt.Sprintf("d%07d.xml", i), root)
	}); err != nil {
		t.Fatal(err)
	}
	d.Warm()
	h := handler(d)

	reads := churnReads()
	cum := zipfCDF(len(reads))
	rng := rand.New(rand.NewSource(1))
	var live []string
	serial := 0
	for op := 0; op < 4000; op++ {
		x := rng.Intn(100)
		var err error
		switch {
		case x >= 10:
			r := reads[zipfRank(cum, rng)]
			r.run(t, h)
		case x < 6 || len(live) == 0:
			serial++
			name := fmt.Sprintf("c-%07d.xml", serial)
			live = append(live, name)
			err = d.Add(name, churnBody(fmt.Sprintf("zadd%d", serial), rng))
		case x < 9:
			serial++
			err = d.Update(live[rng.Intn(len(live))], churnBody(fmt.Sprintf("zupd%d", serial), rng))
		default:
			j := rng.Intn(len(live))
			err = d.Delete(live[j])
			live[j] = live[len(live)-1]
			live = live[:len(live)-1]
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	d.WaitCompaction()
	st := d.ResultCache().Stats()
	ratio := float64(st.Hits) / float64(st.Hits+st.Misses)
	t.Logf("hits %d, misses %d, ratio %.3f, evictions %d", st.Hits, st.Misses, ratio, st.Evictions)
	if ratio < 0.55 {
		t.Errorf("hit ratio %.3f under churn, want at least 0.55", ratio)
	}
	if st.GenMiss != 0 {
		t.Errorf("genmiss = %d, want 0", st.GenMiss)
	}
}

// churnReads is the 512-request read population: the families cycle
// terms, top-k, terms, phrase, terms, top-k, terms, top-k, terms, phrase
// over the ranks, each drawing its words half from the control terms and
// half from the 40 hottest background words.
func churnReads() []cachedRead {
	rng := rand.New(rand.NewSource(1))
	control := []string{"ctla", "ctlb", "ctlc"}
	word := func() string {
		if rng.Intn(2) == 0 {
			return control[rng.Intn(len(control))]
		}
		return fmt.Sprintf("w%06d", 1+rng.Intn(40))
	}
	cycle := "tktptktktp"
	reads := make([]cachedRead, 512)
	for i := range reads {
		switch cycle[i%len(cycle)] {
		case 't':
			terms := []string{word()}
			if rng.Intn(2) == 0 {
				terms = append(terms, word())
			}
			reads[i] = cachedRead{name: "terms", terms: terms, topK: 100}
		case 'k':
			reads[i] = cachedRead{name: "topk", terms: []string{word(), word()}, topK: 5 + rng.Intn(20), cplx: true}
		default:
			terms := []string{"ctla", "ctlb"}
			if rng.Intn(4) == 0 {
				terms = []string{word(), word()}
			}
			reads[i] = cachedRead{name: "phrase", terms: terms, phrase: true}
		}
	}
	return reads
}

// churnBody is an added or replaced document: eight paragraphs of 50
// background words, the second carrying a token no other document has.
func churnBody(token string, rng *rand.Rand) string {
	b := []byte("<doc>")
	for p := 0; p < 8; p++ {
		b = append(b, "<p>"...)
		for w := 0; w < 50; w++ {
			b = fmt.Appendf(b, "w%06d ", rng.Intn(2000))
		}
		if p == 1 {
			b = append(b, token...)
		}
		b = append(b, "</p>"...)
	}
	return string(append(b, "</doc>"...))
}

// zipfCDF is the cumulative distribution of weights 1/(rank+1) over n
// ranks.
func zipfCDF(n int) []float64 {
	cum := make([]float64, n)
	total := 0.0
	for i := range cum {
		total += 1 / float64(i+1)
		cum[i] = total
	}
	for i := range cum {
		cum[i] /= total
	}
	return cum
}

func zipfRank(cum []float64, rng *rand.Rand) int {
	x := rng.Float64()
	lo, hi := 0, len(cum)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if cum[mid] < x {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}
