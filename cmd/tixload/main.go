// Command tixload drives a TIX server with an open-loop, zipfian query
// workload and reports latency percentiles, throughput, and result-cache
// effectiveness as machine-readable JSON.
//
//	tixload -docs 200 -qps 2000 -duration 10s -cache-bytes 8388608
//	tixload -zipf-s 1.0 -mix terms=0.5,topk=0.3,phrase=0.2 -json report.json
//	tixload -ingest-every 50 -cache-bytes 8388608   # mutation churn mixin
//
// Requests go through the production handler tree (server.Handler()) in
// process, through net/http/httptest rather than a socket: the reply
// cache (-cache-bytes; see internal/rescache) is consulted by the server,
// so this is the layer that measures it. Each request is a real JSON body
// decoded, answered and encoded by the server, and a non-2xx reply counts
// as an error.
//
// The driver is open-loop: arrivals are scheduled on a fixed clock from
// the offered rate (-qps) regardless of completions, and each request's
// latency is measured from its *scheduled* arrival, so queue delay under
// overload is charged to the server, not hidden by coordinated omission.
//
// The query population (-queries distinct requests, split across the
// -mix families) is drawn per-arrival from a zipfian distribution with
// exponent -zipf-s over the population ranks, so a small hot set repeats
// heavily — the regime a reply cache is built for. With -ingest-every K
// every K-th arrival is a document add (POST /docs) instead of a query,
// moving the generations of the terms it holds and exactly invalidating
// the cached replies over them mid-run.
//
// The corpus is synthetic (see internal/synth): -docs small INEX-like
// documents with control terms (ctla, ctlb, ctlc) and a planted
// ctla-ctlb phrase adjacency, generated deterministically from -seed.
//
// Output: a single JSON report on stdout (or -json FILE) with the
// resolved config, offered/completed/error counts, achieved throughput,
// per-family and overall p50/p90/p99/max latencies (exact, from the full
// sample set), and the cache's hit/miss/eviction counters with the
// resulting hit rate. A human-readable summary goes to stderr.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/metrics"
	"repro/internal/server"
	"repro/internal/shard"
	"repro/internal/synth"
)

type options struct {
	docs        int
	shards      int
	cacheBytes  int64
	qps         float64
	duration    time.Duration
	queries     int
	zipfS       float64
	mix         string
	ingestEvery int
	seed        int64
	workers     int
	jsonPath    string
	dumpMetrics bool
}

func main() {
	var o options
	flag.IntVar(&o.docs, "docs", 200, "synthetic corpus size in documents")
	flag.IntVar(&o.shards, "shards", 1, "shard count for the backend under load")
	flag.Int64Var(&o.cacheBytes, "cache-bytes", 0, "result-cache budget in bytes (0 = cache off)")
	flag.Float64Var(&o.qps, "qps", 2000, "offered load in requests/sec (open loop)")
	flag.DurationVar(&o.duration, "duration", 10*time.Second, "measurement duration")
	flag.IntVar(&o.queries, "queries", 512, "distinct query population size")
	flag.Float64Var(&o.zipfS, "zipf-s", 1.0, "zipf exponent over query ranks (higher = hotter hot set)")
	flag.StringVar(&o.mix, "mix", "terms=0.5,topk=0.3,phrase=0.2", "query family mix as family=fraction pairs (terms, topk, phrase)")
	flag.IntVar(&o.ingestEvery, "ingest-every", 0, "every k-th arrival is a document Add instead of a query (0 = read-only)")
	flag.Int64Var(&o.seed, "seed", 42, "corpus and workload generation seed")
	flag.IntVar(&o.workers, "workers", 32, "request executor pool size")
	flag.StringVar(&o.jsonPath, "json", "", "write the JSON report to this file instead of stdout")
	flag.BoolVar(&o.dumpMetrics, "metrics", false, "dump the latency histogram registry (server /metrics text format) to stderr")
	flag.Parse()
	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "tixload:", err)
		os.Exit(1)
	}
}

// zipf is an inverse-CDF sampler over ranks 0..n-1 with weight
// 1/(rank+1)^s. Unlike math/rand's Zipf it accepts any s > 0, in
// particular the classic s = 1.0.
type zipf struct {
	cum []float64 // cumulative, normalized
}

func newZipf(n int, s float64) *zipf {
	cum := make([]float64, n)
	total := 0.0
	for i := 0; i < n; i++ {
		total += 1 / math.Pow(float64(i+1), s)
		cum[i] = total
	}
	for i := range cum {
		cum[i] /= total
	}
	return &zipf{cum: cum}
}

func (z *zipf) rank(r *rand.Rand) int {
	return sort.SearchFloat64s(z.cum, r.Float64())
}

// request is one entry of the query population: a JSON body posted to a
// route.
type request struct {
	family string
	path   string
	body   []byte
}

// newRequest encodes one population entry.
func newRequest(family, path string, v any) request {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // the request types always encode
	}
	return request{family: family, path: path, body: b}
}

// do posts body to path on h and returns an error for a non-2xx reply.
func do(h http.Handler, method, path string, body []byte) error {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(method, path, bytes.NewReader(body)))
	if rec.Code < 200 || rec.Code > 299 {
		return fmt.Errorf("%s %s: status %d: %s", method, path, rec.Code, strings.TrimSpace(rec.Body.String()))
	}
	return nil
}

func parseMix(s string) (map[string]float64, error) {
	mix := make(map[string]float64)
	total := 0.0
	for _, part := range strings.Split(s, ",") {
		name, frac, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok {
			return nil, fmt.Errorf("bad mix entry %q (want family=fraction)", part)
		}
		f, err := strconv.ParseFloat(frac, 64)
		if err != nil || f < 0 {
			return nil, fmt.Errorf("bad mix fraction %q", frac)
		}
		switch name {
		case "terms", "topk", "phrase":
		default:
			return nil, fmt.Errorf("unknown query family %q (want terms, topk, phrase)", name)
		}
		mix[name] += f
		total += f
	}
	if total <= 0 {
		return nil, fmt.Errorf("mix %q has no positive fractions", s)
	}
	for k, v := range mix {
		mix[k] = v / total
	}
	return mix, nil
}

// buildPopulation assembles the distinct query set: ranks are assigned to
// families by the mix fractions, parameters drawn from the seeded rng.
// Terms come from the planted control vocabulary plus hot background
// words, so every query has a non-empty posting footprint.
func buildPopulation(n int, mix map[string]float64, rng *rand.Rand) []request {
	control := []string{"ctla", "ctlb", "ctlc"}
	word := func() string {
		if rng.Intn(2) == 0 {
			return control[rng.Intn(len(control))]
		}
		return fmt.Sprintf("w%06d", 1+rng.Intn(40)) // hot zipf head of the background vocabulary
	}
	// Deterministic family assignment by cumulative fraction of rank.
	fams := []string{"terms", "topk", "phrase"}
	pop := make([]request, 0, n)
	for i := 0; i < n; i++ {
		x := float64(i) / float64(n)
		fam := fams[len(fams)-1]
		acc := 0.0
		for _, f := range fams {
			acc += mix[f]
			if x < acc {
				fam = f
				break
			}
		}
		switch fam {
		case "terms":
			terms := []string{word()}
			if rng.Intn(2) == 0 {
				terms = append(terms, word())
			}
			pop = append(pop, newRequest(fam, "/terms", server.TermsRequest{Terms: terms}))
		case "topk":
			terms := []string{word(), word()}
			k := 5 + rng.Intn(20)
			pop = append(pop, newRequest(fam, "/terms", server.TermsRequest{Terms: terms, TopK: k, Complex: true}))
		case "phrase":
			phrase := []string{"ctla", "ctlb"} // planted adjacency
			if rng.Intn(4) == 0 {
				phrase = []string{word(), word()}
			}
			pop = append(pop, newRequest(fam, "/phrase", server.PhraseRequest{Phrase: phrase}))
		}
	}
	// Shuffle so the zipf head spans all families rather than only the
	// first fraction's.
	rng.Shuffle(len(pop), func(i, j int) { pop[i], pop[j] = pop[j], pop[i] })
	return pop
}

func buildCorpus(o options) (*shard.DB, error) {
	d := shard.New(shard.Options{Shards: o.shards, CacheBytes: o.cacheBytes, Metrics: metrics.NewRegistry()})
	for i := 0; i < o.docs; i++ {
		cfg := synth.DefaultConfig()
		cfg.Articles = 2
		cfg.SectionsPerArticle = [2]int{1, 3}
		cfg.Seed = o.seed + int64(i)
		cfg.ControlTerms = map[string]int{"ctla": 12, "ctlb": 8, "ctlc": 4}
		cfg.Phrases = []synth.PhraseSpec{{T1: "ctla", T2: "ctlb", Together: 3}}
		c, err := synth.Generate(cfg)
		if err != nil {
			return nil, err
		}
		if err := d.LoadTree(fmt.Sprintf("doc%06d.xml", i), c.Root); err != nil {
			return nil, err
		}
	}
	d.Warm()
	return d, nil
}

// famStats is the latency digest of one query family.
type famStats struct {
	Count  int64   `json:"count"`
	MeanMs float64 `json:"mean_ms"`
	P50Ms  float64 `json:"p50_ms"`
	P90Ms  float64 `json:"p90_ms"`
	P99Ms  float64 `json:"p99_ms"`
	MaxMs  float64 `json:"max_ms"`
}

func digest(samples []float64) famStats {
	if len(samples) == 0 {
		return famStats{}
	}
	sort.Float64s(samples)
	sum := 0.0
	for _, v := range samples {
		sum += v
	}
	q := func(p float64) float64 {
		i := int(p * float64(len(samples)-1))
		return samples[i]
	}
	return famStats{
		Count:  int64(len(samples)),
		MeanMs: sum / float64(len(samples)),
		P50Ms:  q(0.50),
		P90Ms:  q(0.90),
		P99Ms:  q(0.99),
		MaxMs:  samples[len(samples)-1],
	}
}

type cacheReport struct {
	Hits      int64   `json:"hits"`
	Misses    int64   `json:"misses"`
	Evictions int64   `json:"evictions"`
	GenMiss   int64   `json:"gen_miss"`
	Bytes     int64   `json:"bytes"`
	Entries   int64   `json:"entries"`
	HitRate   float64 `json:"hit_rate"`
}

type report struct {
	Docs        int                 `json:"docs"`
	Shards      int                 `json:"shards"`
	CacheBytes  int64               `json:"cache_bytes"`
	OfferedQPS  float64             `json:"offered_qps"`
	DurationSec float64             `json:"duration_sec"`
	Queries     int                 `json:"queries"`
	ZipfS       float64             `json:"zipf_s"`
	Mix         string              `json:"mix"`
	IngestEvery int                 `json:"ingest_every"`
	Seed        int64               `json:"seed"`
	Workers     int                 `json:"workers"`
	Offered     int64               `json:"offered"`
	Completed   int64               `json:"completed"`
	Ingested    int64               `json:"ingested"`
	Errors      int64               `json:"errors"`
	ElapsedSec  float64             `json:"elapsed_sec"`
	AchievedQPS float64             `json:"achieved_qps"`
	Overall     famStats            `json:"overall"`
	Families    map[string]famStats `json:"families"`
	Cache       *cacheReport        `json:"cache,omitempty"`
}

// arrival is one scheduled request: the clock time it was due and the
// population rank it resolved to (-1 = ingest mixin).
type arrival struct {
	due  time.Time
	rank int
	seq  int64
}

func run(o options) error {
	if o.qps <= 0 || o.duration <= 0 || o.queries <= 0 || o.workers <= 0 {
		return fmt.Errorf("qps, duration, queries, and workers must be positive")
	}
	if o.shards > shard.MaxShards {
		return fmt.Errorf("-shards %d: at most %d", o.shards, shard.MaxShards)
	}
	mix, err := parseMix(o.mix)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "building corpus (%d docs, %d shard(s), cache %d bytes)...\n", o.docs, o.shards, o.cacheBytes)
	d, err := buildCorpus(o)
	if err != nil {
		return err
	}
	defer d.Close()
	srv := server.New(d)
	srv.EnableIngest = o.ingestEvery > 0
	h := srv.Handler()

	rng := rand.New(rand.NewSource(o.seed))
	pop := buildPopulation(o.queries, mix, rng)
	z := newZipf(len(pop), o.zipfS)

	offered := int64(math.Floor(o.qps * o.duration.Seconds()))
	interval := time.Duration(float64(time.Second) / o.qps)
	queue := make(chan arrival, offered)

	// Latency samples per family, sharded per worker to avoid contention;
	// merged after the run. Histograms land in the registry for parity
	// with the server's /metrics format.
	reg := metrics.NewRegistry()
	type sample struct {
		family string
		ms     float64
	}
	perWorker := make([][]sample, o.workers)
	var errs, ingested, completed int64
	var counterMu sync.Mutex

	var wg sync.WaitGroup
	for w := 0; w < o.workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			local := make([]sample, 0, 1024)
			var localErrs, localIngested, localCompleted int64
			for a := range queue {
				if wait := time.Until(a.due); wait > 0 {
					time.Sleep(wait)
				}
				var fam string
				var err error
				if a.rank < 0 {
					fam = "ingest"
					body, _ := json.Marshal(map[string]string{
						"name": fmt.Sprintf("load%09d.xml", a.seq),
						"xml":  fmt.Sprintf("<d><t>fresh w%06d ctla</t></d>", a.seq%40+1),
					})
					err = do(h, http.MethodPost, "/docs", body)
				} else {
					req := pop[a.rank]
					fam = req.family
					err = do(h, http.MethodPost, req.path, req.body)
				}
				ms := float64(time.Since(a.due)) / float64(time.Millisecond)
				reg.Histogram("tix_load_latency_" + fam).Observe(ms / 1e3)
				local = append(local, sample{family: fam, ms: ms})
				if err != nil {
					localErrs++
				} else if fam == "ingest" {
					localIngested++
				} else {
					localCompleted++
				}
			}
			perWorker[w] = local
			counterMu.Lock()
			errs += localErrs
			ingested += localIngested
			completed += localCompleted
			counterMu.Unlock()
		}(w)
	}

	fmt.Fprintf(os.Stderr, "offering %d requests over %s (%.0f qps, zipf s=%.2f over %d queries)...\n",
		offered, o.duration, o.qps, o.zipfS, len(pop))
	start := time.Now()
	dispatchRng := rand.New(rand.NewSource(o.seed + 1))
	for i := int64(0); i < offered; i++ {
		a := arrival{due: start.Add(time.Duration(i) * interval), seq: i}
		if o.ingestEvery > 0 && i%int64(o.ingestEvery) == int64(o.ingestEvery-1) {
			a.rank = -1
		} else {
			a.rank = z.rank(dispatchRng)
		}
		queue <- a // never blocks: capacity == offered (open loop preserved)
	}
	close(queue)
	wg.Wait()
	elapsed := time.Since(start)
	d.WaitCompaction()

	byFam := make(map[string][]float64)
	var all []float64
	for _, ws := range perWorker {
		for _, s := range ws {
			byFam[s.family] = append(byFam[s.family], s.ms)
			all = append(all, s.ms)
		}
	}
	rep := report{
		Docs: o.docs, Shards: o.shards, CacheBytes: o.cacheBytes,
		OfferedQPS: o.qps, DurationSec: o.duration.Seconds(),
		Queries: o.queries, ZipfS: o.zipfS, Mix: o.mix,
		IngestEvery: o.ingestEvery, Seed: o.seed, Workers: o.workers,
		Offered: offered, Completed: completed, Ingested: ingested, Errors: errs,
		ElapsedSec:  elapsed.Seconds(),
		AchievedQPS: float64(completed+ingested) / elapsed.Seconds(),
		Overall:     digest(all),
		Families:    make(map[string]famStats, len(byFam)),
	}
	for fam, samples := range byFam {
		rep.Families[fam] = digest(samples)
	}
	if c := d.ResultCache(); c != nil {
		st := c.Stats()
		cr := cacheReport{
			Hits: st.Hits, Misses: st.Misses, Evictions: st.Evictions,
			GenMiss: st.GenMiss, Bytes: st.Bytes, Entries: st.Entries,
		}
		if lookups := st.Hits + st.Misses; lookups > 0 {
			cr.HitRate = float64(st.Hits) / float64(lookups)
		}
		rep.Cache = &cr
	}

	out := os.Stdout
	if o.jsonPath != "" {
		f, err := os.Create(o.jsonPath)
		if err != nil {
			return err
		}
		defer f.Close()
		out = f
	}
	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		return err
	}

	fmt.Fprintf(os.Stderr, "done: %d completed, %d ingested, %d errors in %.2fs (%.0f qps achieved)\n",
		completed, ingested, errs, elapsed.Seconds(), rep.AchievedQPS)
	fmt.Fprintf(os.Stderr, "latency ms: p50=%.3f p90=%.3f p99=%.3f max=%.3f\n",
		rep.Overall.P50Ms, rep.Overall.P90Ms, rep.Overall.P99Ms, rep.Overall.MaxMs)
	if rep.Cache != nil {
		fmt.Fprintf(os.Stderr, "cache: %.1f%% hit rate (%d hits / %d misses), %d evictions, %d bytes\n",
			100*rep.Cache.HitRate, rep.Cache.Hits, rep.Cache.Misses, rep.Cache.Evictions, rep.Cache.Bytes)
	}
	if o.dumpMetrics {
		if err := reg.WriteText(os.Stderr); err != nil {
			return err
		}
	}
	if errs > 0 {
		return fmt.Errorf("%d requests failed", errs)
	}
	if o.cacheBytes > 0 && (rep.Cache == nil || rep.Cache.Hits == 0) {
		return fmt.Errorf("a %d-byte cache was configured but no request hit it", o.cacheBytes)
	}
	return nil
}
