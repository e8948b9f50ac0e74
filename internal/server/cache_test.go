package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"repro/internal/exec"
	"repro/internal/fixture"
	"repro/internal/metrics"
	"repro/internal/shard"
)

// cachedHitAllocs is the measured allocation count of one cached /terms
// hit through Handler(), request construction excluded: the middleware,
// the body decode, the key and the reply headers.
const cachedHitAllocs = 25

// hitServer serves a cached 2-shard backend whose 120 <p> elements hold
// "alpha", and hitRequest asks it for a 100-result /terms reply.
func hitServer(tb testing.TB) (*shard.DB, http.Handler) {
	tb.Helper()
	p := strings.Repeat("<p>alpha beta &amp; more</p>", 40)
	d := shard.New(shard.Options{Shards: 2, CacheBytes: 1 << 20, Metrics: metrics.NewRegistry()})
	for i := 0; i < 3; i++ {
		if err := d.LoadString(fmt.Sprintf("%d.xml", i), "<r>"+p+"</r>"); err != nil {
			tb.Fatal(err)
		}
	}
	d.Warm()
	return d, New(d).Handler()
}

func hitRequest() *http.Request {
	return httptest.NewRequest(http.MethodPost, "/terms", strings.NewReader(`{"terms":["alpha"],"topK":100}`))
}

// TestCachedTermsHitAllocs pins the cost of a cached /terms hit: it
// allocates a fixed number of times, however long the cached reply.
func TestCachedTermsHitAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not representative under -race")
	}
	d, h := hitServer(t)
	run := func() { h.ServeHTTP(&discardWriter{h: http.Header{}}, hitRequest()) }
	run() // the miss that caches the reply
	c := d.ResultCache()
	before := c.Stats().Hits
	const runs = 100
	got := testing.AllocsPerRun(runs, run) - testing.AllocsPerRun(runs, func() { _ = hitRequest() })
	if hits := c.Stats().Hits - before; hits != runs+1 {
		t.Fatalf("%d hits over %d requests; the measurement is not of the hit path", hits, runs+1)
	}
	if got > cachedHitAllocs {
		t.Errorf("a cached /terms hit allocates %.0f times, want at most %d", got, cachedHitAllocs)
	}
}

// TestCacheKeyedByMaxResults: two servers sharing one backend, and so one
// cache, but truncating replies differently never serve each other's
// entries.
func TestCacheKeyedByMaxResults(t *testing.T) {
	d := shard.New(shard.Options{Shards: 2, CacheBytes: 1 << 20, Metrics: metrics.NewRegistry()})
	for i := 0; i < 4; i++ {
		if err := d.LoadString(fmt.Sprintf("%d.xml", i), "<r><p>alpha beta</p><p>alpha beta</p></r>"); err != nil {
			t.Fatal(err)
		}
	}
	d.Warm()
	const body = `{"phrase":["alpha","beta"]}`
	for round := 0; round < 2; round++ {
		for _, max := range []int{3, 5} {
			s := New(d)
			s.MaxResults = max
			rec := httptest.NewRecorder()
			s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/phrase", strings.NewReader(body)))
			var out struct {
				Count   int
				Results []json.RawMessage
			}
			if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
				t.Fatal(err)
			}
			if out.Count != 8 || len(out.Results) != max {
				t.Errorf("round %d, MaxResults %d: count %d with %d results, want 8 with %d", round, max, out.Count, len(out.Results), max)
			}
		}
	}
	if st := d.ResultCache().Stats(); st.Hits != 2 || st.Puts != 2 {
		t.Errorf("cache stats %+v: want 2 puts and 2 hits", st)
	}
}

// knownCodes are the machine codes a non-2xx reply may carry: every code
// of the package documentation's error schema except "internal".
var knownCodes = map[string]bool{
	"bad_request": true, "unprocessable": true, "limit_exceeded": true,
	"payload_too_large": true, "timeout": true, "canceled": true,
	"unavailable": true, "rate_limited": true, "overloaded": true,
	"conflict": true, "not_found": true, "not_implemented": true,
}

// fuzzReply is one response as a client sees it.
type fuzzReply struct {
	Status int
	Header http.Header
	Body   string
}

func postBody(h http.Handler, path, body string) fuzzReply {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, strings.NewReader(body)))
	return fuzzReply{Status: rec.Code, Header: rec.Result().Header, Body: rec.Body.String()}
}

// FuzzHandlerBodies posts arbitrary bodies to /terms, /phrase and /query
// on a cached 2-shard backend. Every reply is a 2xx or a typed error with
// a known code, never a 500 or a recovered panic; a 2xx reply is returned
// byte for byte, headers included, by an immediate repeat (a cache hit)
// and by a server over an uncached twin.
func FuzzHandlerBodies(f *testing.F) {
	load := func(cacheBytes int64) http.Handler {
		d := shard.New(shard.Options{
			Shards: 2, CacheBytes: cacheBytes, Metrics: metrics.NewRegistry(),
			// A budget counted in store accesses, not time: both servers
			// reject the same expensive queries.
			Limits: exec.Limits{MaxAccesses: 100_000},
		})
		for _, doc := range []struct{ name, xml string }{
			{"articles.xml", fixture.ArticlesXML},
			{"reviews.xml", fixture.ReviewsXML},
		} {
			if err := d.LoadString(doc.name, doc.xml); err != nil {
				f.Fatal(err)
			}
		}
		d.Warm()
		return New(d).Handler()
	}
	cached, uncached := load(1<<20), load(0)
	routes := []string{"/terms", "/phrase", "/query"}
	for _, seed := range []struct {
		route uint8
		body  string
	}{
		{0, `{"terms":["search","engine"],"topK":3}`},
		{0, `{"terms":["search"],"complex":true,"topK":-4}`},
		{0, `{"terms":["Search","<b>&"],"topK":100000}`},
		{0, `{"terms":[]}`},
		{1, `{"phrase":["search","engine"]}`},
		{1, `{"phrase":["information","retrieval"," "]}`},
		{1, `{"phrase":"x"}`},
		{2, `{"query":"For $a in document(\"articles.xml\")//article/descendant-or-self::* Score $a using ScoreFoo($a, {\"search engine\"}, {\"internet\"}) Sortby(score)"}`},
		{2, `{"query":"garbage !!"}`},
		{2, `{"query":""}`},
		{2, `{"query":"x","extra":1}`},
		{0, `not json`},
	} {
		f.Add(seed.route, seed.body)
	}
	f.Fuzz(func(t *testing.T, route uint8, body string) {
		path := routes[int(route)%len(routes)]
		got := postBody(cached, path, body)
		if got.Status < 200 || got.Status > 299 {
			var e ErrorResponse
			if err := json.Unmarshal([]byte(got.Body), &e); err != nil {
				t.Fatalf("%s %q: status %d with an untyped body %q", path, body, got.Status, got.Body)
			}
			if got.Status == http.StatusInternalServerError || e.Status != got.Status || !knownCodes[e.Code] ||
				e.Retryable != retryable(got.Status) || strings.Contains(e.Error, "recovered panic") {
				t.Fatalf("%s %q: status %d, error %+v", path, body, got.Status, e)
			}
			return
		}
		if again := postBody(cached, path, body); !reflect.DeepEqual(again, got) {
			t.Fatalf("%s %q: repeat differs:\n first  %+v\n repeat %+v", path, body, got, again)
		}
		if want := postBody(uncached, path, body); !reflect.DeepEqual(want, got) {
			t.Fatalf("%s %q: cached server differs from uncached:\n cached   %+v\n uncached %+v", path, body, got, want)
		}
	})
}

// BenchmarkCachedTermsHit times one cached 100-result /terms hit through
// Handler() on 2 shards, request construction included.
func BenchmarkCachedTermsHit(b *testing.B) {
	_, h := hitServer(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.ServeHTTP(&discardWriter{h: http.Header{}}, hitRequest())
	}
}
