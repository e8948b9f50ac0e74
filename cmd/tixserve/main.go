// Command tixserve serves a TIX database over HTTP (see internal/server
// for the API):
//
//	tixserve -load articles.xml -load reviews.xml -addr :8080
//	tixserve -open db.tix -addr :8080
//	tixserve -open db.tix -shards 8 -addr :8080
//
// With -shards N the corpus is partitioned across N independent segments
// and every query fans out across them in parallel (see internal/shard);
// results are merged under the same ordering contract as a single store,
// so the API output is identical for any shard count.
//
// Example request:
//
//	curl -s localhost:8080/stats
//	curl -s -X POST localhost:8080/terms -d '{"terms":["search","engine"],"topK":5}'
//	curl -s localhost:8080/metrics
//
// The server exposes per-query metrics on /metrics, a liveness probe on
// /healthz, and (with -pprof) the net/http/pprof profiling endpoints. It
// shuts down gracefully on SIGINT/SIGTERM, draining in-flight queries.
//
// With -ingest the document mutation endpoints are enabled and the corpus
// can be grown, replaced, and shrunk while the server answers queries:
//
//	curl -s -X POST localhost:8080/docs -d '{"name":"new.xml","xml":"<a>hi</a>"}'
//	curl -s -X PUT localhost:8080/docs/new.xml -d '{"xml":"<a>bye</a>"}'
//	curl -s -X DELETE localhost:8080/docs/new.xml
//
// Without the flag those endpoints answer 501, keeping the default server
// read-only.
//
// Queries run under per-request resource budgets: -query-timeout bounds
// wall-clock evaluation time (408 on expiry), -max-accesses bounds store
// reads per query (422 on exhaustion), and a client disconnect cancels the
// scan. The -fault-every/-fault-latency flags inject deterministic storage
// faults and latency for resilience testing; injected faults surface as
// 503 responses, never crashes.
//
// With -replicas N the corpus is loaded into N identical backends behind
// a self-healing serving tier (see internal/fleet): per-replica circuit
// breakers eject failing replicas and re-admit them after probing,
// replica faults are retried on healthy twins, and slow primaries are
// hedged after -hedge-after (or the live p95, whichever is larger).
// Traffic readiness is on /readyz, distinct from the /healthz liveness
// probe. Fault flags can target a single replica for self-healing drills:
//
//	tixserve -load articles.xml -replicas 3 -fault-replica 0 -fault-every 50
//
// With -cache-bytes N the server keeps a generation-keyed reply cache
// (see internal/rescache) of at most N bytes in front of the backend:
// repeated term, phrase, and query requests are answered with the stored
// reply bytes, and invalidation is exact because a generation is part of
// every key. A term or phrase entry is invalidated by a write to a
// document holding one of its terms; a query entry by any mutation. The
// budget is spent once for the whole tier, not per replica: a fleet
// serves from its first replica's cache, so only that replica builds one.
// Cache traffic is visible on /metrics as tix_rescache_*.
//
// The -rate-limit and -max-inflight flags enable admission control:
// per-client token buckets (429 when exhausted) in front of a global
// concurrency gate that sheds rather than queues unboundedly (503).
// Rejections are typed JSON errors with Retry-After hints.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/exec"
	"repro/internal/fleet"
	"repro/internal/server"
	"repro/internal/shard"
	"repro/internal/storage"
)

type multiFlag []string

func (m *multiFlag) String() string { return strings.Join(*m, ",") }

func (m *multiFlag) Set(v string) error {
	*m = append(*m, v)
	return nil
}

// options gathers the parsed flags.
type options struct {
	loads        []string
	addr         string
	open         string
	shards       int
	stem         bool
	maxResults   int
	maxBody      int64
	ingest       bool
	pprofOn      bool
	quiet        bool
	drain        time.Duration
	queryTimeout time.Duration
	maxAccesses  int64
	faultEvery   int64
	faultLatency time.Duration
	faultLatEvry int64
	faultSeed    int64
	replicas     int
	hedgeAfter   time.Duration
	faultReplica int
	rateLimit    float64
	maxInflight  int
	cacheBytes   int64
}

func main() {
	var o options
	var loads multiFlag
	flag.Var(&loads, "load", "XML file to load (repeatable)")
	flag.StringVar(&o.addr, "addr", ":8080", "listen address")
	flag.StringVar(&o.open, "open", "", "snapshot file written by tixdb -save")
	flag.IntVar(&o.shards, "shards", 0, "number of corpus shards queried in parallel (0 = keep an opened file's layout, else 1)")
	flag.BoolVar(&o.stem, "stem", true, "index with the light plural stemmer")
	flag.IntVar(&o.maxResults, "max-results", 100, "per-request result cap")
	flag.Int64Var(&o.maxBody, "max-body", 1<<20, "per-request body size cap in bytes")
	flag.BoolVar(&o.ingest, "ingest", false, "enable the document mutation endpoints (POST/PUT/DELETE /docs)")
	flag.BoolVar(&o.pprofOn, "pprof", false, "expose net/http/pprof under /debug/pprof/")
	flag.BoolVar(&o.quiet, "quiet", false, "disable per-request logging")
	flag.DurationVar(&o.drain, "drain", 10*time.Second, "graceful shutdown drain timeout")
	flag.DurationVar(&o.queryTimeout, "query-timeout", 0, "per-query evaluation deadline (0 = none); expiry returns 408")
	flag.Int64Var(&o.maxAccesses, "max-accesses", 0, "per-query store-access budget (0 = none); exhaustion returns 422")
	flag.Int64Var(&o.faultEvery, "fault-every", 0, "inject a storage fault every k-th store access (0 = off; testing)")
	flag.DurationVar(&o.faultLatency, "fault-latency", 0, "injected latency per matching store access (testing)")
	flag.Int64Var(&o.faultLatEvry, "fault-latency-every", 0, "apply -fault-latency every k-th store access (0 = off)")
	flag.Int64Var(&o.faultSeed, "fault-seed", 0, "offset for the deterministic fault schedule")
	flag.IntVar(&o.replicas, "replicas", 1, "number of identical backend replicas behind the self-healing serving tier")
	flag.DurationVar(&o.hedgeAfter, "hedge-after", 25*time.Millisecond, "hedge-delay floor before a request is duplicated to a second replica (negative = no hedging)")
	flag.IntVar(&o.faultReplica, "fault-replica", -1, "restrict fault injection to one replica index (-1 = all; self-healing drills)")
	flag.Float64Var(&o.rateLimit, "rate-limit", 0, "per-client sustained requests/sec; exhaustion returns 429 (0 = off)")
	flag.IntVar(&o.maxInflight, "max-inflight", 0, "global concurrent-request gate; overload sheds with 503 (0 = off)")
	flag.Int64Var(&o.cacheBytes, "cache-bytes", 0, "reply-cache budget in bytes for the whole tier; generation-keyed, exact (0 = off)")
	flag.Parse()
	o.loads = loads
	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "tixserve:", err)
		os.Exit(1)
	}
}

// buildReplica constructs one fully-loaded backend from the corpus flags.
func buildReplica(o options) (*shard.DB, error) {
	var d *shard.DB
	if o.open != "" {
		var err error
		d, err = shard.OpenFile(o.open)
		if err != nil {
			return nil, err
		}
		if o.shards > 0 && o.shards != d.Shards() {
			d, err = d.Reshard(o.shards, d.Strategy())
			if err != nil {
				return nil, err
			}
			fmt.Fprintf(os.Stderr, "resharded %s into %d shard(s)\n", o.open, o.shards)
		}
	} else {
		d = shard.New(shard.Options{Shards: o.shards, Stemming: o.stem, CacheBytes: o.cacheBytes})
	}
	if o.cacheBytes > 0 && d.ResultCache() == nil {
		// The -open path constructs the facade itself; attach the cache
		// after the fact.
		d.EnableResultCache(o.cacheBytes)
	}
	d.SetLimits(exec.Limits{MaxAccesses: o.maxAccesses})
	for _, path := range o.loads {
		if err := d.LoadFile(path); err != nil {
			return nil, err
		}
	}
	d.Stats() // force index construction before serving
	return d, nil
}

func run(o options) error {
	if len(o.loads) == 0 && o.open == "" && !o.ingest {
		return fmt.Errorf("nothing to serve; use -load, -open, or -ingest to start empty")
	}
	if o.shards > shard.MaxShards {
		return fmt.Errorf("-shards %d: at most %d", o.shards, shard.MaxShards)
	}
	if o.replicas < 1 {
		o.replicas = 1
	}

	// Every replica loads the same corpus in the same order, so document
	// numbering agrees across the tier and any replica can serve any
	// request.
	replicas := make([]*shard.DB, 0, o.replicas)
	for i := 0; i < o.replicas; i++ {
		ro := o
		if i > 0 {
			ro.cacheBytes = 0 // the server reads only the first replica's cache
		}
		d, err := buildReplica(ro)
		if err != nil {
			return fmt.Errorf("replica %d: %w", i, err)
		}
		replicas = append(replicas, d)
	}

	if o.faultEvery > 0 || (o.faultLatency > 0 && o.faultLatEvry > 0) {
		inj := func() *storage.FaultInjector {
			return &storage.FaultInjector{
				FailEvery:    o.faultEvery,
				Latency:      o.faultLatency,
				LatencyEvery: o.faultLatEvry,
				Seed:         o.faultSeed,
			}
		}
		armed := "all replicas"
		if o.faultReplica >= 0 {
			if o.faultReplica >= len(replicas) {
				return fmt.Errorf("-fault-replica %d out of range (replicas: %d)", o.faultReplica, len(replicas))
			}
			replicas[o.faultReplica].SetFaults(inj())
			armed = fmt.Sprintf("replica %d", o.faultReplica)
		} else {
			for _, d := range replicas {
				d.SetFaults(inj())
			}
		}
		fmt.Fprintf(os.Stderr, "fault injection armed on %s: every=%d latency=%s/%d seed=%d\n",
			armed, o.faultEvery, o.faultLatency, o.faultLatEvry, o.faultSeed)
	}

	var backend server.Backend = replicas[0]
	if o.replicas > 1 {
		bs := make([]fleet.Backend, len(replicas))
		for i, d := range replicas {
			bs[i] = d
		}
		// The first replica's registry: the process-wide one, or a
		// reshard's own, so /metrics keeps its shard gauges.
		f, err := fleet.New(fleet.Config{
			HedgeAfter:  o.hedgeAfter,
			PanicErrors: []error{shard.ErrPanic},
			Metrics:     replicas[0].MetricsRegistry(),
		}, bs...)
		if err != nil {
			return err
		}
		backend = f
		fmt.Fprintf(os.Stderr, "serving tier: %d replicas, hedge-after=%s, health-checked routing on\n",
			o.replicas, o.hedgeAfter)
	}

	st := backend.Stats()
	fmt.Fprintf(os.Stderr, "serving %d document(s), %d nodes, %d terms on %s (%d shard(s), %s)\n",
		st.Documents, st.Nodes, st.Terms, o.addr, replicas[0].Shards(), replicas[0].Strategy())
	s := server.New(backend)
	if o.rateLimit > 0 || o.maxInflight > 0 {
		s.Admission = fleet.NewAdmission(fleet.AdmissionConfig{
			RatePerSec:  o.rateLimit,
			MaxInflight: o.maxInflight,
			Metrics:     backend.MetricsRegistry(),
		})
		fmt.Fprintf(os.Stderr, "admission control: rate-limit=%g/s max-inflight=%d\n",
			o.rateLimit, o.maxInflight)
	}
	s.MaxResults = o.maxResults
	s.MaxBodyBytes = o.maxBody
	s.EnablePprof = o.pprofOn
	s.EnableIngest = o.ingest
	s.QueryTimeout = o.queryTimeout
	if o.ingest {
		fmt.Fprintln(os.Stderr, "ingestion enabled: POST /docs, PUT /docs/{name}, DELETE /docs/{name}")
	}
	if !o.quiet {
		s.Logger = log.New(os.Stderr, "", log.LstdFlags|log.Lmicroseconds)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	err := s.ListenAndServeContext(ctx, o.addr, o.drain)
	if ctx.Err() != nil {
		fmt.Fprintln(os.Stderr, "tixserve: signal received, drained and stopped")
	}
	return err
}
