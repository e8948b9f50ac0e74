package main

import (
	"fmt"
	"net"
	"net/http"
	"runtime"
	"time"

	"repro/internal/fleet"
	"repro/internal/metrics"
	"repro/internal/server"
	"repro/internal/shard"
	"repro/internal/synth"
	"repro/internal/xmltree"
)

// workload is one traffic mix over one serving topology. The four specs
// below are the benchmark; tests shrink docs/articles to run in seconds.
type workload struct {
	name string
	why  string

	replicas   int   // >1 puts a fleet in front of identical backends
	shards     int   // segments per backend
	docs       int   // streamed small documents per backend
	articles   int   // >0 adds one articles.xml built by synth.Generate
	cacheBytes int64 // per-backend result cache, 0 = off
	admission  bool  // fleet.Admission in front of the handlers
	ingest     bool  // POST/PUT/DELETE /docs live

	// tailQ is the quantile tail_ms reports, fixed per workload: the
	// highest one that still leaves about ten samples beyond it in a
	// window (wire workloads) or in the whole run (reopen).
	tailQ float64
	// inProcess marks the reopen workload, which times snapshot cycles
	// instead of socket traffic.
	inProcess bool
	// oneClient pins the run to a single closed-loop client. wire-churn
	// needs it: at the parent commit a read that overlaps an Add on
	// another connection sometimes panics inside the facade ("index out of
	// range", recovered, 422), and a workload must not contain operations
	// that fail. reopen is sequential by definition.
	oneClient bool
}

const cacheBudget = 8 << 20

var workloads = []workload{
	{
		name:     "wire-hot",
		why:      "zipf reads that hit the result cache behind a 3-replica fleet with admission: server, fleet and rescache do the work, exec almost none",
		replicas: 3, shards: 1, docs: 20000, cacheBytes: cacheBudget, admission: true, tailQ: 0.99,
	},
	{
		name:     "wire-cold",
		why:      "uncached planted joins, top-k, phrase and the paper's Query 1 on 2 shards: exec, postings, shard merge, storage and xq do the work, cache and fleet none",
		replicas: 1, shards: 2, docs: 100000, articles: 300, tailQ: 0.99,
	},
	{
		name:     "wire-churn",
		why:      "90% cached reads with 10% add/update/delete on one shard: memtable cursors, generation invalidation and background compaction, which read-only runs never touch",
		replicas: 1, shards: 1, docs: 30000, cacheBytes: cacheBudget, ingest: true, tailQ: 0.99, oneClient: true,
	},
	{
		name:     "reopen",
		why:      "save, open and warm a snapshot, then answer one query: the only workload where persist and index restore do the work",
		replicas: 1, shards: 1, docs: 10000, tailQ: 0.75, inProcess: true, oneClient: true,
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// planted is the control vocabulary every streamed corpus carries, with
// exact total frequencies derived from the document count: the tixload
// control terms for the cached population, and the hot-path rig's sparse
// and dense pairs and rare+common phrase for the uncached one.
type planted struct {
	freq    map[string]int
	phrases []synth.PhraseSpec
}

func atLeast(n, min int) int {
	if n < min {
		return min
	}
	return n
}

func plantedFor(docs int) planted {
	p := planted{freq: map[string]int{
		"ctla": atLeast(docs*3/5, 2), "ctlb": atLeast(docs*2/5, 2), "ctlc": atLeast(docs/5, 1),
		"sparsea": atLeast(docs/50, 1), "sparseb": atLeast(docs/50, 1),
		"densea": atLeast(docs/2, 1), "denseb": atLeast(docs/2, 1),
		"rare": atLeast(docs/1000, 1), "common": atLeast(docs/20, 1),
	}}
	p.phrases = []synth.PhraseSpec{
		{T1: "ctla", T2: "ctlb", Together: atLeast(docs/200, 1)},
		{T1: "rare", T2: "common", Together: atLeast(docs/2000, 1)},
	}
	return p
}

func (p planted) together(t1 string) int {
	for _, ph := range p.phrases {
		if ph.T1 == t1 {
			return ph.Together
		}
	}
	return 0
}

// articlesName is the document the xq Query-1 request runs over.
const articlesName = "articles.xml"

// articlesCorpus builds the nested INEX-like document for the xq request,
// with a planted phrase and a secondary term so Query 1 has answers.
func articlesCorpus(articles int, seed int64) (*xmltree.Node, error) {
	cfg := synth.DefaultConfig()
	cfg.Articles = articles
	cfg.Seed = seed
	cfg.ControlTerms = map[string]int{"xqa": 3 * articles, "xqb": 3 * articles, "xqc": 3 * articles}
	cfg.Phrases = []synth.PhraseSpec{{T1: "xqa", T2: "xqb", Together: 2 * articles}}
	c, err := synth.Generate(cfg)
	if err != nil {
		return nil, err
	}
	return c.Root, nil
}

func docName(i int) string { return fmt.Sprintf("d%07d.xml", i) }

// buildBackend generates and loads one backend's corpus from seed and
// warms it. Every replica of a fleet calls this with the same arguments,
// so document numbering agrees across them.
func buildBackend(w workload, seed int64) (*shard.DB, error) {
	d := shard.New(shard.Options{
		Shards:     w.shards,
		Strategy:   shard.RoundRobin,
		CacheBytes: w.cacheBytes,
		Metrics:    metrics.NewRegistry(),
	})
	p := plantedFor(w.docs)
	cfg := synth.DefaultStreamConfig(w.docs)
	cfg.Seed = seed
	cfg.ControlTerms = p.freq
	cfg.Phrases = p.phrases
	if _, err := synth.GenerateStream(cfg, func(i int, root *xmltree.Node) error {
		return d.LoadTree(docName(i), root)
	}); err != nil {
		return nil, err
	}
	if w.articles > 0 {
		root, err := articlesCorpus(w.articles, seed)
		if err != nil {
			return nil, err
		}
		if err := d.LoadTree(articlesName, root); err != nil {
			return nil, err
		}
	}
	d.Warm()
	return d, nil
}

// stack is one running serving tier: backends, optional fleet, the real
// server.Handler() on a loopback listener in this process.
type stack struct {
	w        workload
	backends []*shard.DB
	fleet    *fleet.Fleet
	rec      *recorder // nil unless tracing
	srv      *http.Server
	addr     string
	served   chan error
}

// startStack builds the backends from seed and serves them. With rec set
// it hands the program timing decorators instead of the bare values: one
// around each fleet replica, one around the server's backend, and one
// around the handler tree.
func startStack(w workload, seed int64, rec *recorder) (*stack, error) {
	st := &stack{w: w, rec: rec}
	for i := 0; i < w.replicas; i++ {
		d, err := buildBackend(w, seed)
		if err != nil {
			st.close()
			return nil, fmt.Errorf("replica %d: %w", i, err)
		}
		st.backends = append(st.backends, d)
	}
	var backend server.Backend = st.backends[0]
	if rec != nil {
		backend = traced(st.backends[0], rec, "facade")
	}
	if w.replicas > 1 {
		bs := make([]fleet.Backend, len(st.backends))
		for i, d := range st.backends {
			bs[i] = d
			if rec != nil {
				bs[i] = traced(d, rec, "facade")
			}
		}
		f, err := fleet.New(fleet.Config{
			Metrics:     metrics.NewRegistry(),
			PanicErrors: []error{shard.ErrPanic},
		}, bs...)
		if err != nil {
			st.close()
			return nil, err
		}
		st.fleet = f
		backend = f
		if rec != nil {
			backend = traced(f, rec, "fleet")
		}
	}
	s := server.New(backend)
	s.EnableIngest = w.ingest
	if w.admission {
		// The rate limit is set high enough never to reject: admission's
		// bookkeeping is on the path, its shedding is not.
		s.Admission = fleet.NewAdmission(fleet.AdmissionConfig{
			RatePerSec:  1e9,
			Burst:       1 << 30,
			MaxInflight: 64,
			Metrics:     backend.MetricsRegistry(),
		})
	}
	if err := st.serve(s); err != nil {
		st.close()
		return nil, err
	}
	return st, nil
}

// serve starts s.Handler() on a loopback listener and returns once it
// answers a probe over a fresh connection.
func (st *stack) serve(s *server.Server) error {
	h := s.Handler()
	if st.rec != nil {
		h = tracedHandler(h, st.rec)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	st.addr = ln.Addr().String()
	st.srv = &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}
	st.served = make(chan error, 1)
	go func() { st.served <- st.srv.Serve(ln) }()
	c, err := dial(st.addr)
	if err != nil {
		return fmt.Errorf("server not ready: %w", err)
	}
	defer c.close()
	if _, _, err := c.do(healthzRequest); err != nil {
		return fmt.Errorf("server not ready: %w", err)
	}
	return nil
}

// close stops the listener, waits for Serve to return, and releases the
// backends' background goroutines.
func (st *stack) close() {
	if st.srv != nil {
		_ = st.srv.Close() // in-flight clients are already stopped
		<-st.served
	}
	for _, d := range st.backends {
		d.WaitCompaction()
		d.Close()
	}
}

// setupReps is how many times a run builds its stack: setup_s is the
// median, so one slow build (a GC cycle landing badly) does not move it.
const setupReps = 3

// timedSetup builds the stack setupReps times, keeps the last, and
// returns the median set-up time and the live heap after two forced GCs.
func timedSetup(w workload, seed int64, rec *recorder, reps int) (*stack, float64, float64, error) {
	var st *stack
	var times []float64
	for i := 0; i < reps; i++ {
		if st != nil {
			st.close()
			st = nil
		}
		start := time.Now()
		var err error
		st, err = startStack(w, seed, rec)
		if err != nil {
			return nil, 0, 0, err
		}
		times = append(times, time.Since(start).Seconds())
	}
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return st, median(times), float64(ms.HeapAlloc) / (1 << 20), nil
}
