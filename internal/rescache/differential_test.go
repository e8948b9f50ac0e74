package rescache_test

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/metrics"
	"repro/internal/rescache"
	"repro/internal/server"
	"repro/internal/shard"
	"repro/internal/storage"
)

// The differential suite proves the tentpole property end to end: with
// the reply cache enabled, every cached request family gets reply bytes
// and headers identical to those of an uncached oracle server driven
// through the exact same mutation history, at every generation — after
// bulk build, adds, updates, deletes, and compaction. Each family is
// posted twice per stage to the cached server so the second request is
// answered from the cache (asserted via the hit counter), which is the
// path that would expose a stale or corrupted entry.

func diffDocName(i int) string { return fmt.Sprintf("doc%06d.xml", i) }

// diffDocSrc plants a guaranteed phrase ("alpha beta") in every document
// and spreads terms over residues so queries hit overlapping subsets.
func diffDocSrc(i int) string {
	return fmt.Sprintf("<d><t>common w%d q%d</t><s>alpha beta w%d</s></d>", i%97, i%13, i%7)
}

// diffQuery exercises the full pipeline (Score, Pick, Sortby, Threshold)
// against one document, the per-document-routed family the shard facade
// supports. Doc 3 is never updated or deleted by the stages below, so
// the query stays valid at every generation.
func diffQuery(name string) string {
	return fmt.Sprintf(`
		For $a in document(%q)//d/descendant-or-self::*
		Score $a using ScoreFoo($a, {"alpha beta"}, {"common"})
		Pick $a using PickFoo($a, 0.1)
		Sortby(score)
		Threshold $a/@score stop after 10`, name)
}

// family is one cached request shape, as a client posts it.
type family struct{ name, path, body string }

// diffFamilies returns every request family the cache covers.
func diffFamilies() []family {
	q, err := json.Marshal(server.QueryRequest{Query: diffQuery(diffDocName(3))})
	if err != nil {
		panic(err)
	}
	return []family{
		{"terms-simple", "/terms", `{"terms":["common","w3"]}`},
		{"terms-complex-topk", "/terms", `{"terms":["common","alpha"],"complex":true,"topK":10}`},
		{"terms-topk", "/terms", `{"terms":["w3","q7"],"topK":25}`},
		{"phrase", "/phrase", `{"phrase":["alpha","beta"]}`},
		{"query", "/query", string(q)},
	}
}

// reply is one response as a client sees it.
type reply struct {
	Status int
	Header http.Header
	Body   string
}

func post(h http.Handler, f family) reply {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, f.path, strings.NewReader(f.body)))
	return reply{Status: rec.Code, Header: rec.Result().Header, Body: rec.Body.String()}
}

// count is a 200 reply's result count.
func (r reply) count(t *testing.T) int {
	t.Helper()
	var v struct{ Count int }
	if r.Status != http.StatusOK {
		t.Fatalf("status %d: %s", r.Status, r.Body)
	}
	if err := json.Unmarshal([]byte(r.Body), &v); err != nil {
		t.Fatal(err)
	}
	return v.Count
}

// diffStages is the generation ladder both databases climb in lockstep.
func diffStages() []struct {
	name  string
	apply func(t *testing.T, d *shard.DB)
} {
	must := func(t *testing.T, err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	return []struct {
		name  string
		apply func(t *testing.T, d *shard.DB)
	}{
		{"build", func(t *testing.T, d *shard.DB) {
			for i := 0; i < 30; i++ {
				must(t, d.LoadString(diffDocName(i), diffDocSrc(i)))
			}
			d.Warm()
		}},
		{"adds", func(t *testing.T, d *shard.DB) {
			for i := 30; i < 40; i++ {
				must(t, d.Add(diffDocName(i), diffDocSrc(i)))
			}
		}},
		{"updates", func(t *testing.T, d *shard.DB) {
			for i := 5; i < 10; i++ {
				must(t, d.Update(diffDocName(i), diffDocSrc(i+1000)))
			}
		}},
		{"deletes", func(t *testing.T, d *shard.DB) {
			for i := 10; i < 15; i++ {
				must(t, d.Delete(diffDocName(i)))
			}
		}},
		{"compaction", func(t *testing.T, d *shard.DB) {
			d.CompactNow()
			d.WaitCompaction()
		}},
	}
}

// checkFamilies posts every family to the oracle handler and twice to
// the cached one, requiring the computed (first) and cached (second)
// replies to equal the oracle's in status, headers and bytes, and the
// cache to have served the repeat.
func checkFamilies(t *testing.T, stage string, c *rescache.Cache, cached, oracle http.Handler) {
	t.Helper()
	for _, fam := range diffFamilies() {
		want := post(oracle, fam)
		if want.count(t) == 0 {
			t.Fatalf("%s/%s: oracle returned no results; family is vacuous", stage, fam.name)
		}
		before := c.Stats()
		got1 := post(cached, fam)
		got2 := post(cached, fam)
		if after := c.Stats(); after.Hits <= before.Hits {
			t.Errorf("%s/%s: repeat request not served from cache (hits %d -> %d)",
				stage, fam.name, before.Hits, after.Hits)
		}
		if !reflect.DeepEqual(got1, want) {
			t.Errorf("%s/%s: computed reply diverges from oracle:\n got  %+v\n want %+v", stage, fam.name, got1, want)
		}
		if !reflect.DeepEqual(got2, want) {
			t.Errorf("%s/%s: cached reply diverges from oracle:\n got  %+v\n want %+v", stage, fam.name, got2, want)
		}
	}
}

// runDifferential climbs the generation ladder on a cached backend and
// its uncached oracle twin, each behind its own server.
func runDifferential(t *testing.T, cached, oracle *shard.DB) {
	t.Helper()
	c := cached.ResultCache()
	if c == nil {
		t.Fatal("cached backend has no result cache")
	}
	if oracle.ResultCache() != nil {
		t.Fatal("oracle backend unexpectedly has a result cache")
	}
	hc, ho := server.New(cached).Handler(), server.New(oracle).Handler()
	for _, st := range diffStages() {
		st.apply(t, cached)
		st.apply(t, oracle)
		checkFamilies(t, st.name, c, hc, ho)
	}
	if st := c.Stats(); st.GenMiss != 0 {
		t.Errorf("stale-generation lookups served a miss path %d times; keys must make this impossible", st.GenMiss)
	}
}

// TestDifferentialMonolithic runs the ladder on one shard. The oracle is
// the same facade without a cache: an Update keeps the facade's global
// id, so only the same topology numbers updated documents alike.
func TestDifferentialMonolithic(t *testing.T) {
	cached := shard.New(shard.Options{Shards: 1, CacheBytes: 1 << 20, Metrics: metrics.NewRegistry()})
	defer cached.Close()
	oracle := shard.New(shard.Options{Shards: 1, Metrics: metrics.NewRegistry()})
	runDifferential(t, cached, oracle)
}

func TestDifferentialSharded(t *testing.T) {
	cached := shard.New(shard.Options{Shards: 3, CacheBytes: 1 << 20, Metrics: metrics.NewRegistry()})
	defer cached.Close()
	oracle := shard.New(shard.Options{Shards: 3, Metrics: metrics.NewRegistry()})
	runDifferential(t, cached, oracle)
}

// TestDifferentialShardedVsMonolithic closes the triangle on a static
// corpus: a server over a cached 3-shard facade must agree with one over
// an uncached single shard (global-id rewriting happens before a reply
// is encoded, so cached replies are already in facade coordinates).
// Static only — an Update keeps the facade's global id while a segment
// allocates a fresh one, so cross-topology id equality is only
// guaranteed for identical load histories (same scope as the shard
// equivalence suite).
func TestDifferentialShardedVsMonolithic(t *testing.T) {
	cached := shard.New(shard.Options{Shards: 3, CacheBytes: 1 << 20, Metrics: metrics.NewRegistry()})
	defer cached.Close()
	oracle := shard.New(shard.Options{Shards: 1, Metrics: metrics.NewRegistry()})
	for i := 0; i < 30; i++ {
		for _, d := range []*shard.DB{cached, oracle} {
			if err := d.LoadString(diffDocName(i), diffDocSrc(i)); err != nil {
				t.Fatal(err)
			}
		}
	}
	cached.Warm()
	oracle.Warm()
	checkFamilies(t, "static", cached.ResultCache(), server.New(cached).Handler(), server.New(oracle).Handler())
}

// TestDifferentialIngestWhileQuerying is the concurrent variant, modeled
// on db.TestIngestWhileQueryingMatchesBuild: readers hammer a server over
// the cached database with a fixed set of repeat requests (so the cache
// is serving hits continuously) while two writers stream documents into
// the facade: 100k that share terms with the readers' requests, and half
// as many that share none, whose writes leave the readers' entries
// reachable. Every reply a reader observes must be a 200; after the dust
// settles the cached server must agree, document name for name, with a
// server over a scratch bulk build, and the stale-generation counter must
// be zero — no reader ever saw a reply from a dead generation.
func TestDifferentialIngestWhileQuerying(t *testing.T) {
	nDocs := 100_000
	if testing.Short() {
		nDocs = 2_000
	}
	cached := shard.New(shard.Options{Shards: 1, CacheBytes: 8 << 20, Metrics: metrics.NewRegistry()})
	defer cached.Close()
	// Seed one document and warm so the live index (and with it the
	// cache's generation token) exists before readers start.
	if err := cached.LoadString(diffDocName(0), diffDocSrc(0)); err != nil {
		t.Fatal(err)
	}
	cached.Warm()
	hc := server.New(cached).Handler()
	reads := []family{
		{"terms", "/terms", `{"terms":["w3","q7"],"topK":25}`},
		{"topk", "/terms", `{"terms":["common"],"complex":true,"topK":10}`},
		{"phrase", "/phrase", `{"phrase":["alpha","beta"]}`},
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	readerErr := make(chan error, 4)
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				f := reads[(i+r)%len(reads)]
				if got := post(hc, f); got.Status != http.StatusOK {
					select {
					case readerErr <- fmt.Errorf("reader %d iter %d: %s: status %d: %s", r, i, f.name, got.Status, got.Body):
					default:
					}
					return
				}
			}
		}(r)
	}
	// The unrelated writer's documents interleave with the related ones in
	// an unknown order, so replies are compared by document name below.
	unrelated := nDocs / 2
	writerErr := make(chan error, 1)
	var writers sync.WaitGroup
	writers.Add(1)
	go func() {
		defer writers.Done()
		for i := 0; i < unrelated; i++ {
			if err := cached.Add(unrelatedDocName(i), unrelatedDocSrc(i)); err != nil {
				writerErr <- err
				return
			}
		}
	}()
	for i := 1; i < nDocs; i++ {
		if err := cached.Add(diffDocName(i), diffDocSrc(i)); err != nil {
			close(stop)
			t.Fatal(err)
		}
	}
	writers.Wait()
	close(stop)
	wg.Wait()
	select {
	case err := <-readerErr:
		t.Fatal(err)
	case err := <-writerErr:
		t.Fatal(err)
	default:
	}
	cached.WaitCompaction()

	scratch := shard.New(shard.Options{Shards: 1, Metrics: metrics.NewRegistry()})
	for i := 0; i < nDocs; i++ {
		if err := scratch.LoadString(diffDocName(i), diffDocSrc(i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < unrelated; i++ {
		if err := scratch.LoadString(unrelatedDocName(i), unrelatedDocSrc(i)); err != nil {
			t.Fatal(err)
		}
	}
	scratch.Warm()
	hs := server.New(scratch).Handler()

	for _, f := range reads {
		want := namedReply(t, scratch.DocName, post(hs, f))
		// Twice: once computed at the final generation, once from cache.
		first, second := post(hc, f), post(hc, f)
		if !reflect.DeepEqual(first, second) {
			t.Fatalf("%s: repeated reply differs:\n first  %+v\n second %+v", f.name, first, second)
		}
		if got := namedReply(t, cached.DocName, first); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: %d results diverge from scratch build (%d)", f.name, got.Count, want.Count)
		}
	}

	st := cached.ResultCache().Stats()
	if st.GenMiss != 0 {
		t.Errorf("readers touched %d dead-generation entries; generation keying failed", st.GenMiss)
	}
	if st.Hits == 0 {
		t.Error("no cache hits during concurrent ingest; the test exercised nothing")
	}
	t.Logf("ingest-while-querying cache stats: %+v", st)
}

// unrelatedDocSrc shares no term with the ingest-while-querying readers'
// requests.
func unrelatedDocSrc(i int) string {
	return fmt.Sprintf("<u><v>zeta z%d</v><v>eta</v></u>", i%89)
}

func unrelatedDocName(i int) string { return fmt.Sprintf("un%06d.xml", i) }

// named is a /terms or /phrase reply with each result's document given
// by name, comparable across databases that numbered their documents
// differently.
type named struct {
	Count   int
	Results []map[string]any
}

func namedReply(t *testing.T, name func(storage.DocID) string, r reply) named {
	t.Helper()
	var v named
	if r.Status != http.StatusOK {
		t.Fatalf("status %d: %s", r.Status, r.Body)
	}
	if err := json.Unmarshal([]byte(r.Body), &v); err != nil {
		t.Fatal(err)
	}
	for _, res := range v.Results {
		res["doc"] = name(storage.DocID(res["doc"].(float64)))
	}
	return v
}
