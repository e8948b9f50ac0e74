package fleet_test

// Fleet drills that need the reply cache, which the HTTP server consults
// in front of the fleet: they drive server.Handler() over a 3-replica
// fleet. They live in the external test package because the server
// imports the fleet.

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/fixture"
	"repro/internal/fleet"
	"repro/internal/metrics"
	"repro/internal/server"
	"repro/internal/shard"
	"repro/internal/storage"
)

// servedFleet is a 3-replica fleet over cached databases behind the
// production handler tree.
type servedFleet struct {
	fleet    *fleet.Fleet
	replicas []*shard.DB
	h        http.Handler
}

// chaosBreaker trips after two samples at half failures and stays open for
// openFor.
func chaosBreaker(openFor time.Duration) fleet.BreakerConfig {
	return fleet.BreakerConfig{Window: 8, MinSamples: 2, FailureRatio: 0.5, OpenFor: openFor, HalfOpenProbes: 1}
}

// newServedFleet serves a fleet over three replicas of the fixture corpus,
// with cfg's breaker, or chaosBreaker(30ms) when cfg sets none.
func newServedFleet(t *testing.T, cfg fleet.Config) *servedFleet {
	t.Helper()
	sf := &servedFleet{}
	var backends []fleet.Backend
	for i := 0; i < 3; i++ {
		d := shard.New(shard.Options{Shards: 1, Metrics: metrics.NewRegistry(), CacheBytes: 1 << 20})
		if err := d.LoadString("articles.xml", fixture.ArticlesXML); err != nil {
			t.Fatal(err)
		}
		if err := d.LoadString("reviews.xml", fixture.ReviewsXML); err != nil {
			t.Fatal(err)
		}
		d.Warm() // the live index: tokens exist, so replies are cached
		sf.replicas = append(sf.replicas, d)
		backends = append(backends, d)
	}
	cfg.Metrics = metrics.NewRegistry()
	if cfg.Breaker == (fleet.BreakerConfig{}) {
		cfg.Breaker = chaosBreaker(30 * time.Millisecond)
	}
	cfg.Backoff = fleet.Backoff{Base: time.Millisecond, Max: 4 * time.Millisecond}
	f, err := fleet.New(cfg, backends...)
	if err != nil {
		t.Fatal(err)
	}
	sf.fleet = f
	sf.h = server.New(f).Handler()
	return sf
}

// post sends one request through the handler tree and returns the
// status and the body.
func (sf *servedFleet) post(path, body string) (int, string) {
	rec := httptest.NewRecorder()
	sf.h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, strings.NewReader(body)))
	return rec.Code, rec.Body.String()
}

// drive posts n requests from each of w workers, the i-th worker's j-th
// being body(i, j) to path(i, j); any non-200 fails the test.
func (sf *servedFleet) drive(t *testing.T, w, n int, req func(i, j int) (path, body string)) []time.Duration {
	t.Helper()
	var mu sync.Mutex
	var lats []time.Duration
	errc := make(chan string, w)
	var wg sync.WaitGroup
	for i := 0; i < w; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < n; j++ {
				path, body := req(i, j)
				start := time.Now()
				if code, out := sf.post(path, body); code != http.StatusOK {
					select {
					case errc <- fmt.Sprintf("%s %s: status %d: %s", path, body, code, out):
					default:
					}
					return
				}
				mu.Lock()
				lats = append(lats, time.Since(start))
				mu.Unlock()
			}
		}(i)
	}
	wg.Wait()
	select {
	case e := <-errc:
		t.Fatalf("client-visible error: %s", e)
	default:
	}
	return lats
}

// mix is a zipfian-flavored request mix: most requests repeat a small hot
// set (the cache-friendly head), the rest vary terms and top-k (the cold
// tail).
func mix(i, j int) (string, string) {
	vocab := []string{"search", "engine", "information", "retrieval", "internet", "databases"}
	switch {
	case (i+j)%4 != 0:
		return "/terms", `{"terms":["search","engine"],"topK":5}`
	case j%2 == 0:
		return "/terms", fmt.Sprintf(`{"terms":[%q,%q],"topK":%d}`, vocab[j%len(vocab)], vocab[(i+j)%len(vocab)], 1+j%7)
	}
	return "/phrase", fmt.Sprintf(`{"phrase":["search",%q]}`, vocab[j%len(vocab)])
}

// cold requests are never-before-seen (a unique nonce term each): cache
// misses, so every one reaches storage on whichever replica serves it.
func cold(tag string) func(i, j int) (string, string) {
	return func(i, j int) (string, string) {
		return "/terms", fmt.Sprintf(`{"terms":["search","%s-%d-%d"],"topK":5}`, tag, i, j)
	}
}

func p99(lats []time.Duration) time.Duration {
	if len(lats) == 0 {
		return 0
	}
	sorted := append([]time.Duration(nil), lats...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	return sorted[min(len(sorted)*99/100, len(sorted)-1)]
}

// TestChaosWarmCacheReplicaKilled is the warm-cache drill: the server's
// reply cache is heated by zipfian traffic (with a burst of replicated
// mutations in between, so generation churn and exact invalidation are in
// play), then 1-of-3 replicas is killed mid-traffic. The contract: zero
// client-visible errors, hot traffic keeps being answered from the cache
// (hit counter still climbing during the outage), and not one request was
// answered from a dead generation (genmiss == 0) — failover never trades
// staleness for availability.
func TestChaosWarmCacheReplicaKilled(t *testing.T) {
	// The breaker stays open for longer than any pass takes, so the check
	// after the outage sees it open however slowly the passes run.
	sf := newServedFleet(t, fleet.Config{HedgeAfter: -1, MaxRetries: 3, Breaker: chaosBreaker(time.Minute)})
	c := sf.fleet.ResultCache()
	var lats []time.Duration

	lats = append(lats, sf.drive(t, 4, 20, mix)...)

	// Replicated mutations move every replica's tokens: the warm entries
	// over the written terms die, exactly, and the next pass re-warms.
	for i := 0; i < 3; i++ {
		if err := sf.fleet.Add(fmt.Sprintf("churn%d.xml", i),
			fmt.Sprintf("<doc><p>churn search engine %d</p></doc>", i)); err != nil {
			t.Fatal(err)
		}
	}
	lats = append(lats, sf.drive(t, 4, 20, mix)...)

	hitsBefore := c.Stats().Hits
	if hitsBefore == 0 {
		t.Fatal("cache cold after warm-up traffic; drill would prove nothing")
	}

	// Kill replica 0 mid-traffic: every storage access faults. The reply
	// cache answers the hot head without reaching any replica (it is
	// built by replica 0's facade, but its memory is not storage), so
	// cold nonce requests are mixed in to force storage accesses and trip
	// the breaker; retries and routing must mask every fault.
	sf.replicas[0].SetFaults(&storage.FaultInjector{FailEvery: 1})
	lats = append(lats, sf.drive(t, 4, 10, cold("outage"))...)
	lats = append(lats, sf.drive(t, 4, 30, mix)...)

	if got := sf.fleet.BreakerState(0); got != fleet.StateOpen {
		t.Fatalf("killed replica's breaker = %v, want open", got)
	}
	st := c.Stats()
	if st.Hits <= hitsBefore {
		t.Errorf("cache hits flat through the outage (%d -> %d); hot traffic served cold", hitsBefore, st.Hits)
	}
	if st.GenMiss != 0 {
		t.Errorf("genmiss = %d; a stale-generation entry was touched — replies may have been stale", st.GenMiss)
	}
	if got := p99(lats); got > 2*time.Second {
		t.Errorf("p99 across the warm-cache drill = %v, want bounded (≤ 2s)", got)
	}
}

// TestFleetTokenCoversPartiallyAppliedWrite stages the interleaving the
// fleet's token sum exists for (DESIGN.md §13): a write has landed on
// replica 0 but not yet on its twins, and a read keyed while it is in
// flight is served by a twin without it. Once every replica has applied
// the write, the next read must show the new document. Keyed by replica
// 0's token alone, that read would reuse the in-flight read's entry and
// miss the document.
func TestFleetTokenCoversPartiallyAppliedWrite(t *testing.T) {
	sf := newServedFleet(t, fleet.Config{HedgeAfter: -1, MaxRetries: 3})
	c := sf.fleet.ResultCache()
	const req = `{"terms":["quokka"]}`
	count := func(step string) int {
		t.Helper()
		code, body := sf.post("/terms", req)
		if code != http.StatusOK {
			t.Fatalf("%s: status %d: %s", step, code, body)
		}
		var v struct{ Count int }
		if err := json.Unmarshal([]byte(body), &v); err != nil {
			t.Fatal(err)
		}
		return v.Count
	}
	if n := count("before"); n != 0 {
		t.Fatalf("before the write: %d results, want 0", n)
	}
	const name, doc = "quokka.xml", "<doc><p>quokka search</p></doc>"

	// The write lands on replica 0 only, and replica 0 stops serving
	// reads, so the fleet answers from a twin that has not applied it.
	if err := sf.replicas[0].Add(name, doc); err != nil {
		t.Fatal(err)
	}
	sf.replicas[0].SetFaults(&storage.FaultInjector{FailEvery: 1})
	puts := c.Stats().Puts
	if n := count("in flight"); n != 0 {
		t.Fatalf("in flight: %d results, want 0 (served by a twin without the write)", n)
	}
	if got := c.Stats().Puts; got != puts+1 {
		t.Fatalf("in flight: puts %d -> %d, want the in-flight reply cached", puts, got)
	}

	// The write completes everywhere.
	for _, d := range sf.replicas[1:] {
		if err := d.Add(name, doc); err != nil {
			t.Fatal(err)
		}
	}
	sf.replicas[0].SetFaults(nil)
	if n := count("after"); n != 2 {
		t.Fatalf("after the write completed: %d results, want the new <doc> and <p> (a reply cached while it was in flight was served)", n)
	}
	if st := c.Stats(); st.GenMiss != 0 {
		t.Errorf("genmiss = %d, want 0", st.GenMiss)
	}
}
