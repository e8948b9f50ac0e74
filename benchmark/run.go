package main

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/metrics"
	"repro/internal/rescache"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the object a run prints as its last line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// metricSet starts every declared metric at 0 with its declared unit, so
// a run cannot print a metric the catalogue lacks or miss one it has.
func metricSet(decls []metricDecl) map[string]metric {
	m := make(map[string]metric, len(decls))
	for _, d := range decls {
		m[d.name] = metric{0, d.unit}
	}
	return m
}

func setMetric(m map[string]metric, name string, v float64) {
	cur, ok := m[name]
	if !ok {
		panic("benchmark: undeclared metric " + name)
	}
	m[name] = metric{v, cur.Unit}
}

// runConfig is what one invocation fixes.
type runConfig struct {
	seed      int64
	seconds   float64
	warmup    float64
	setupReps int
	outDir    string
	log       io.Writer // progress and the per-layer table, never stdout
}

// clientsFor is the closed-loop client count: min(2, nproc), and one
// where the workload says so.
func clientsFor(w workload) int {
	if w.oneClient || runtime.NumCPU() < 2 {
		return 1
	}
	return 2
}

func seconds(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// tally accumulates attempted/failed over every phase and check of a run.
type tally struct {
	attempted, failed int
	first             string
}

func (t *tally) add(attempted, failed int, first string) {
	t.attempted += attempted
	t.failed += failed
	if t.first == "" {
		t.first = first
	}
}

func (t *tally) phase(p phaseResult) { t.add(p.attempted, p.failed, p.firstFail) }

// learn fills every backend's result cache with the read population,
// then records digests and counts planted-invariant violations. The fill
// goes straight to each backend because the fleet spreads requests by its
// own cursor: through the socket, a cold entry on some replica would
// stay cold for as long as the zipf tail takes to reach it.
func learn(st *stack, reads []request, t *tally) ([]digest, error) {
	if st.w.cacheBytes > 0 {
		for _, d := range st.backends {
			for i := range reads {
				callFacade(context.Background(), d, &reads[i])
			}
		}
	}
	c, err := dial(st.addr)
	if err != nil {
		return nil, err
	}
	defer c.close()
	digests, bad, first := learnDigests(c, reads)
	if digests == nil {
		return nil, first
	}
	msg := ""
	if first != nil {
		msg = first.Error()
	}
	t.add(len(reads), bad, msg)
	if st.w.ingest {
		return nil, nil // answers legitimately change under writes
	}
	return digests, nil
}

// runUntraced measures the end-to-end metrics of one workload.
func runUntraced(w workload, cfg runConfig) (result, error) {
	clients := clientsFor(w)
	st, setupS, heapMB, err := timedSetup(w, cfg.seed, nil, cfg.setupReps)
	if err != nil {
		return result{}, err
	}
	defer st.close()
	// Built after the heap is read, so heap_mb is the stack's, not the
	// generator's.
	plans := buildPlans(w, cfg.seed, clients, cfg.warmup+cfg.seconds)
	fmt.Fprintf(cfg.log, "%s: set up in %.2fs (median of %d), live heap %.1f MiB, %d client(s)\n",
		w.name, setupS, cfg.setupReps, heapMB, clients)

	var t tally
	var thr, p50, tail float64
	var n int
	if w.inProcess {
		timed, _, err := runReopen(st, cfg.outDir, seconds(cfg.seconds))
		if err != nil {
			return result{}, err
		}
		t.phase(timed)
		lat := latenciesMs(timed.samples)
		sort.Float64s(lat)
		n = len(lat)
		thr, p50, tail = float64(n)/timed.elapsed.Seconds(), percentile(lat, 0.5), percentile(lat, w.tailQ)
	} else {
		digests, err := learn(st, plans[0].reads, &t)
		if err != nil {
			return result{}, err
		}
		offsets := make([]int, clients)
		warm, err := runPhase(st.addr, plans, offsets, seconds(cfg.warmup), digests, nil)
		if err != nil {
			return result{}, err
		}
		t.phase(warm)
		timed, err := runPhase(st.addr, plans, warm.executed, seconds(cfg.seconds), digests, nil)
		if err != nil {
			return result{}, err
		}
		t.phase(timed)
		if w.ingest {
			done := make([]int, clients)
			for c := range done {
				done[c] = warm.executed[c] + timed.executed[c]
			}
			verifyWrites(st.addr, plans, done, cfg.seed, &t)
		}
		n = len(timed.samples)
		thr, p50, tail = wireSummary(timed.samples, seconds(cfg.seconds), w.tailQ)
		logRoutes(cfg.log, w, timed.samples)
	}
	fmt.Fprintf(cfg.log, "%s: %.1f ops/s, p50 %.3f ms, p%g %.3f ms over %d samples, %d failed of %d\n",
		w.name, thr, p50, w.tailQ*100, tail, n, t.failed, t.attempted)
	if t.first != "" {
		fmt.Fprintf(cfg.log, "%s: first failure: %s\n", w.name, t.first)
	}
	m := metricSet(endToEnd)
	setMetric(m, "throughput_ops_s", thr)
	setMetric(m, "p50_ms", p50)
	setMetric(m, "tail_ms", tail)
	setMetric(m, "setup_s", setupS)
	setMetric(m, "heap_mb", heapMB)
	return result{Correct: t.failed == 0, Attempted: t.attempted, Failed: t.failed, Metrics: m}, nil
}

// logRoutes prints each route's share and latency, for the reader who
// wants to know which kind of request a moved metric came from.
func logRoutes(out io.Writer, w workload, samples []sample) {
	var byRoute [numRoutes][]float64
	for _, s := range samples {
		byRoute[s.route] = append(byRoute[s.route], float64(s.lat)/1e6)
	}
	for r, lat := range byRoute {
		if len(lat) == 0 {
			continue
		}
		sort.Float64s(lat)
		fmt.Fprintf(out, "%s:   %-7s %7d ops  p50 %8.3f ms  p99 %8.3f ms\n",
			w.name, route(r), len(lat), percentile(lat, 0.5), percentile(lat, 0.99))
	}
}

// verifyWrites samples up to 200 documents the clients wrote and checks
// their final state through the socket: the last token written is found
// in exactly its <p> and its <doc>, every earlier token of that document
// is gone, and a deleted document's tokens are all gone.
func verifyWrites(addr string, plans []plan, executed []int, seed int64, t *tally) {
	type state struct {
		tokens  []string // every token the document ever carried, oldest first
		deleted bool
	}
	docs := map[string]*state{}
	var names []string
	for c := range plans {
		pl := &plans[c]
		for i := 0; i < executed[c] && i < len(pl.seq); i++ {
			r := pl.at(i)
			if !r.route.isWrite() {
				continue
			}
			s := docs[r.doc]
			if s == nil {
				s = &state{}
				docs[r.doc] = s
				names = append(names, r.doc)
			}
			if r.route == rDelete {
				s.deleted = true
			} else {
				s.tokens = append(s.tokens, r.token)
			}
		}
	}
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(names), func(i, j int) { names[i], names[j] = names[j], names[i] })
	if len(names) > 200 {
		names = names[:200]
	}
	c, err := dial(addr)
	if err != nil {
		t.add(1, 1, err.Error())
		return
	}
	defer c.close()
	for _, name := range names {
		s := docs[name]
		for i, tok := range s.tokens {
			want := 0
			if i == len(s.tokens)-1 && !s.deleted {
				want = 2
			}
			probe := termsRequest([]string{tok}, 0, false)
			probe.maxCount = 0 // the count is compared below, not bounded
			got := -1
			if ds, _, err := learnDigests(c, []request{probe}); err == nil {
				got = ds[0].count
			}
			if got == want {
				t.add(1, 0, "")
				continue
			}
			t.add(1, 1, fmt.Sprintf("after the run token %s of %s is in %d elements, want %d", tok, name, got, want))
		}
	}
}

// opCounter sums one counter family over the op labels the query paths
// record under.
func opCounter(reg *metrics.Registry, family string) float64 {
	total := int64(0)
	for _, op := range []string{"query", "terms", "phrase"} {
		total += reg.Counter(family + `{op="` + op + `"}`).Value()
	}
	return float64(total)
}

// counters is the set of program-side counts a traced phase brackets.
type counters struct {
	cache                    rescache.Stats
	hedges, accesses, result float64
}

func (st *stack) counters() counters {
	var c counters
	for _, d := range st.backends {
		if rc := d.ResultCache(); rc != nil {
			s := rc.Stats()
			c.cache.Hits += s.Hits
			c.cache.Misses += s.Misses
			c.cache.GenMiss += s.GenMiss
			c.cache.Evictions += s.Evictions
		}
		reg := d.MetricsRegistry()
		c.accesses += opCounter(reg, "tix_access_node_reads_total")
		c.result += opCounter(reg, "tix_query_results_total")
	}
	if st.fleet != nil {
		c.hedges = opCounter(st.fleet.MetricsRegistry(), "tix_fleet_hedges_total")
	}
	return c
}

// backlogWatch polls CompactionBacklog at 10 Hz until stopped and reports
// the maximum seen and how many times it fell (a fold finished).
func backlogWatch(st *stack) (stop func() (max, folds int)) {
	quit := make(chan struct{})
	var wg sync.WaitGroup
	var max, folds int
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(100 * time.Millisecond)
		defer tick.Stop()
		prev := 0
		for {
			select {
			case <-quit:
				return
			case <-tick.C:
				b := st.backends[0].CompactionBacklog()
				if b > max {
					max = b
				}
				if b < prev {
					folds++
				}
				prev = b
			}
		}
	}()
	return func() (int, int) {
		close(quit)
		wg.Wait()
		return max, folds
	}
}

// tracedReopen prices the parts of a reopen cycle separately.
func tracedReopen(st *stack, cfg runConfig, set func(string, float64), t *tally) error {
	timed, ops, err := runReopen(st, cfg.outDir, seconds(cfg.seconds))
	if err != nil {
		return err
	}
	t.phase(timed)
	var save, open, first []float64
	for _, op := range ops {
		save = append(save, op.save.Seconds())
		open = append(open, op.open.Seconds())
		first = append(first, float64(op.firstQuery)/1e6)
	}
	set("persist.save_s", median(save))
	set("persist.open_s", median(open))
	set("persist.first_query_ms", median(first))
	if len(ops) > 0 {
		set("persist.bytes_per_xml_byte", float64(ops[0].fileBytes)/float64(xmlBytes(st.backends[0])))
	}
	ms := st.backends[0].Segment(0).Index().MemStats()
	set("postings.bytes_per_posting", float64(ms.EncodedBytes+ms.BitmapBytes)/float64(ms.Postings))
	set("postings.bitmap_terms", float64(ms.BitmapTerms))
	fmt.Fprintf(cfg.log, "%s: save %.3fs open %.3fs first query %.2f ms over %d cycles\n",
		st.w.name, median(save), median(open), median(first), len(ops))
	return nil
}

// runTraced measures the per-layer metrics of one workload: one client,
// an untraced phase then a traced phase on the same stack, then replay.
func runTraced(w workload, cfg runConfig) (result, error) {
	m := metricSet(perLayer)
	set := func(name string, v float64) { setMetric(m, name, v) }
	rec := newRecorder()
	plans := buildPlans(w, cfg.seed, 1, cfg.warmup+cfg.seconds)
	st, _, _, err := timedSetup(w, cfg.seed, rec, 1)
	if err != nil {
		return result{}, err
	}
	defer st.close()
	var t tally

	rtt, err := nullRTT(st.addr, 2000)
	if err != nil {
		return result{}, err
	}
	set("client.null_rtt_us", rtt)

	if w.inProcess {
		if err := tracedReopen(st, cfg, set, &t); err != nil {
			return result{}, err
		}
		return result{Correct: t.failed == 0, Attempted: t.attempted, Failed: t.failed, Metrics: m}, nil
	}

	digests, err := learn(st, plans[0].reads, &t)
	if err != nil {
		return result{}, err
	}
	warm, err := runPhase(st.addr, plans, []int{0}, seconds(cfg.warmup), digests, rec)
	if err != nil {
		return result{}, err
	}
	t.phase(warm)
	// A third of the time untraced, the rest traced, on the same stack:
	// the p50 difference is what the spans cost.
	plain, err := runPhase(st.addr, plans, warm.executed, seconds(cfg.seconds*0.3), digests, rec)
	if err != nil {
		return result{}, err
	}
	t.phase(plain)
	from := warm.executed[0] + plain.executed[0]
	before := st.counters()
	stopWatch := backlogWatch(st)
	rec.on.Store(true)
	traced, err := runPhase(st.addr, plans, []int{from}, seconds(cfg.seconds*0.7), digests, rec)
	rec.on.Store(false)
	backlogMax, folds := stopWatch()
	if err != nil {
		return result{}, err
	}
	t.phase(traced)
	after := st.counters()
	// Fleet attempts that lost a race may still be running; give them a
	// moment to record before the spans are read.
	time.Sleep(50 * time.Millisecond)
	rec.mu.Lock()
	spans := rec.spans
	rec.mu.Unlock()

	p50plain, p50traced := median(latenciesMs(plain.samples)), median(latenciesMs(traced.samples))
	if p50plain > 0 {
		set("trace.overhead_pct", 100*(p50traced-p50plain)/p50plain)
	}

	sum := analyze(spans)
	priced := replay(st.backends[0], &plans[0], replayCounts(&plans[0], from, traced.executed[0]))
	hits, misses := float64(after.cache.Hits-before.cache.Hits), float64(after.cache.Misses-before.cache.Misses)
	hitRatio := 0.0
	if hits+misses > 0 {
		hitRatio = hits / (hits + misses)
	}
	att := attribute(sum, priced, w.cacheBytes > 0, hitRatio)

	set("client.self_us", sum.perReq("client"))
	set("server.self_us", sum.perReq("server"))
	set("server.materialize_us", sum.perReq("materialize"))
	set("server.materialize_calls_per_req", sum.materializeCalls/float64(sum.requests))
	set("fleet.self_us", sum.perReq("fleet"))
	set("fleet.attempts_per_req", sum.attemptsPerReq)
	set("fleet.hedges", after.hedges-before.hedges)
	set("rescache.hit_ratio", hitRatio)
	set("rescache.genmiss", float64(after.cache.GenMiss-before.cache.GenMiss))
	set("rescache.evictions", float64(after.cache.Evictions-before.cache.Evictions))
	set("rescache.roundtrip_us", att.cacheRT)
	set("shard.fanout_self_us", att.fanout)
	set("db.self_us", att.dbSelf)
	set("xq.parse_us", att.parse)
	set("xq.eval_us", att.eval)
	set("exec.termjoin_us", att.byRoute[rTerms])
	set("exec.topk_us", att.byRoute[rTopK])
	set("exec.phrase_us", att.byRoute[rPhrase])
	if dr := after.result - before.result; dr > 0 {
		set("exec.accesses_per_result", (after.accesses-before.accesses)/dr)
	}
	set("postings.decode_ns_per_posting", att.decodeNs)
	var postings, bytes, bitmaps float64
	for i := 0; i < st.backends[0].Shards(); i++ {
		ms := st.backends[0].Segment(i).Index().MemStats()
		postings += float64(ms.Postings)
		bytes += float64(ms.EncodedBytes + ms.BitmapBytes)
		bitmaps += float64(ms.BitmapTerms)
	}
	set("postings.bytes_per_posting", bytes/postings)
	set("postings.bitmap_terms", bitmaps)
	var adds []float64
	for _, s := range traced.samples {
		if s.route == rAdd {
			adds = append(adds, float64(s.lat)/1e3)
		}
	}
	set("index.add_us", median(adds))
	set("index.compactions", float64(folds))
	set("index.backlog_max", float64(backlogMax))
	set("trace.attributed_pct", att.attributedPct)

	printLayers(cfg.log, w, sum, att, len(traced.samples))
	written := spans
	if len(written) > maxTraceSpans {
		written = written[:maxTraceSpans]
	}
	path := filepath.Join(cfg.outDir, "trace-"+w.name+".json")
	if err := writeTrace(path, w.name, written); err != nil {
		return result{}, err
	}
	fmt.Fprintf(cfg.log, "%s: %d spans of %d requests, first %d written to %s\n",
		w.name, len(spans), sum.requests, len(written), path)
	if t.first != "" {
		fmt.Fprintf(cfg.log, "%s: first failure: %s\n", w.name, t.first)
	}
	return result{Correct: t.failed == 0, Attempted: t.attempted, Failed: t.failed, Metrics: m}, nil
}

// maxTraceSpans bounds the trace file; the per-layer numbers use every
// span recorded.
const maxTraceSpans = 60000
