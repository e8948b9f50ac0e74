// Package shard is the serving facade: it partitions a corpus across N
// independent db.DB segments (each one storage.Store plus its live index),
// executes the paper's access methods per shard in parallel, and owns
// everything a served request needs beyond evaluation — the reply cache
// the server consults (built here, looked up there), the per-operation
// and ingest metrics, global document numbering and the snapshot
// file. Every binary serves through it; one shard is the
// single-store case. Each document lives wholly in one segment, chosen by a
// stable hash of its name (or round-robin); because region encodings and
// node ordinals are per-document, an element's (doc, ord, score) identity
// is independent of which segment holds it, so a deterministic scored
// k-way merge (exec.RankedBefore: score desc, then document asc, then
// start ordinal asc — the same ordering contract as the single-store
// paths) reproduces the monolithic results element for element. The
// differential suite in equiv_test.go enforces exactly that.
//
// Top-k queries push the limit down: each shard keeps its own k best, and
// the merger re-thresholds to the global k — correct because any globally
// top-k element is necessarily in its own shard's top k. Resource budgets
// (exec.Guard) are shared: the workers' combined emissions and store
// accesses count against one limit, cancellation stops every shard within
// one check interval, and the first worker failure latches and aborts the
// rest.
package shard

import (
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"

	"repro/internal/db"
	"repro/internal/exec"
	"repro/internal/metrics"
	"repro/internal/rescache"
	"repro/internal/storage"
	"repro/internal/xmltree"
)

// Strategy selects how documents are assigned to shards.
type Strategy byte

const (
	// ByHash assigns a document by a stable FNV-1a hash of its name, so
	// the same corpus loads identically regardless of load order.
	ByHash Strategy = 0
	// RoundRobin assigns documents cyclically in load order — the choice
	// for benchmark corpora where balanced shard sizes matter more than
	// name stability.
	RoundRobin Strategy = 1
)

func (s Strategy) String() string {
	switch s {
	case ByHash:
		return "hash"
	case RoundRobin:
		return "round-robin"
	}
	return fmt.Sprintf("Strategy(%d)", byte(s))
}

// Options configures a sharded database.
type Options struct {
	// Shards is the number of segments (minimum 1).
	Shards int
	// Strategy selects the document partitioner (default ByHash).
	Strategy Strategy
	// Stemming and Stopwords apply to every segment, with the same
	// meanings as db.Options.
	Stemming  bool
	Stopwords []string
	// Metrics, when non-nil, receives the facade's instrumentation (see
	// metrics.go) instead of the process-wide metrics.Default registry.
	Metrics *metrics.Registry
	// Limits is the per-query resource budget. It is shared
	// across the shard workers of one query, not multiplied per shard.
	Limits exec.Limits
	// CacheBytes, when positive, builds a generation-keyed result cache
	// of that budget, which the server fronting the facade stores
	// encoded replies in (see cache.go).
	CacheBytes int64
}

// docRef locates one globally-numbered document inside its segment.
type docRef struct {
	shard int
	local storage.DocID
}

// DB is a sharded database: N independent db.DB segments behind the
// facade. Documents are numbered globally in load order; every result
// crossing the facade carries global document ids, so callers never see
// segment-local coordinates. Like db.DB, a sharded DB must be fully
// loaded (and ideally Warmed) before concurrent query use.
type DB struct {
	opts Options
	segs []*db.DB

	// mu guards the routing tables below. Loads and the mutation API
	// (Add/Update/Delete) write them; query paths translate segment-local
	// document ids to global ids under the read lock, so queries may run
	// concurrently with routed ingestion.
	mu       sync.RWMutex
	docs     []docRef                 // global DocID -> placement
	names    []string                 // global DocID -> document name
	byName   map[string]storage.DocID // document name -> global DocID
	globalOf [][]storage.DocID        // per shard: local DocID -> global
	next     int                      // round-robin cursor

	// cache, when set, is the reply cache the server consults (see
	// cache.go).
	cache atomic.Pointer[rescache.Cache]
}

// New creates an empty sharded database. Options.Shards below 1 is
// treated as 1, and above MaxShards as MaxShards.
func New(opts Options) *DB {
	opts.Shards = min(max(opts.Shards, 1), MaxShards)
	s := &DB{
		opts:     opts,
		segs:     make([]*db.DB, opts.Shards),
		byName:   map[string]storage.DocID{},
		globalOf: make([][]storage.DocID, opts.Shards),
	}
	for i := range s.segs {
		s.segs[i] = db.New(db.Options{
			Stemming:  opts.Stemming,
			Stopwords: opts.Stopwords,
			Limits:    opts.Limits,
		})
	}
	if opts.CacheBytes > 0 {
		s.EnableResultCache(opts.CacheBytes)
	}
	return s
}

// Shards returns the number of segments.
func (s *DB) Shards() int { return len(s.segs) }

// Strategy returns the document partitioning strategy.
func (s *DB) Strategy() Strategy { return s.opts.Strategy }

// Segment exposes one underlying segment (read-mostly; for tests and
// persistence).
func (s *DB) Segment(i int) *db.DB { return s.segs[i] }

// MetricsRegistry returns the registry the facade records into.
func (s *DB) MetricsRegistry() *metrics.Registry {
	if s.opts.Metrics != nil {
		return s.opts.Metrics
	}
	return metrics.Default
}

// SetLimits replaces the per-query resource budget (shared by the shard
// workers of one query).
func (s *DB) SetLimits(l exec.Limits) {
	s.opts.Limits = l
	for _, seg := range s.segs {
		seg.SetLimits(l)
	}
}

// SetFaults installs one fault injector on every segment store. The
// injector's access counter is shared, so the deterministic fault
// schedule spans shards.
func (s *DB) SetFaults(f *storage.FaultInjector) {
	for _, seg := range s.segs {
		seg.Store().SetFaults(f)
	}
}

// hashShard is the stable name-to-shard assignment of ByHash.
func hashShard(name string, n int) int {
	h := fnv.New32a()
	_, _ = io.WriteString(h, name)
	return int(h.Sum32() % uint32(n))
}

// pickShard chooses the segment for a new document; the round-robin
// cursor only advances once the load succeeds (see track).
func (s *DB) pickShard(name string) int {
	if s.opts.Strategy == RoundRobin {
		return s.next % len(s.segs)
	}
	return hashShard(name, len(s.segs))
}

// ShardOf returns the segment holding the named document.
func (s *DB) ShardOf(name string) (int, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	gid, ok := s.byName[name]
	if !ok {
		return 0, false
	}
	return s.docs[gid].shard, true
}

// globalIDs returns the current local-to-global id table of one segment.
// The table is append-only (stale tails for tombstoned documents are never
// referenced by results), so the captured slice header stays valid after
// the lock is released.
func (s *DB) globalIDs(i int) []storage.DocID {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.globalOf[i]
}

// refOf resolves a global document id to its segment placement. Burned
// ids (dead slots appended by BurnDocID) resolve to no segment.
func (s *DB) refOf(doc storage.DocID) (docRef, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.refLocked(doc)
}

// refLocked is refOf for a caller holding s.mu.
func (s *DB) refLocked(doc storage.DocID) (docRef, bool) {
	if int(doc) < 0 || int(doc) >= len(s.docs) || s.docs[doc].shard < 0 {
		return docRef{}, false
	}
	return s.docs[doc], true
}

// track records a successfully loaded document in the global numbering.
// Caller holds s.mu.
func (s *DB) track(name string, shard int, local storage.DocID) {
	gid := storage.DocID(len(s.docs))
	s.docs = append(s.docs, docRef{shard: shard, local: local})
	s.names = append(s.names, name)
	s.byName[name] = gid
	s.globalOf[shard] = append(s.globalOf[shard], gid)
	s.next++
}

// shardGauge publishes one segment's live-document count. Caller holds
// s.mu (read or write).
func (s *DB) shardGauge(shard int) {
	s.MetricsRegistry().Gauge(fmt.Sprintf(`tix_shard_documents{shard="%d"}`, shard)).
		Set(int64(s.segs[shard].DocumentCount()))
}

// LoadTree loads an already-parsed tree under the given document name into
// the shard its name (or the round-robin cursor) selects.
func (s *DB) LoadTree(name string, root *xmltree.Node) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.byName[name]; dup {
		return fmt.Errorf("shard: document %q already loaded", name)
	}
	i := s.pickShard(name)
	local := storage.DocID(s.segs[i].Store().NumDocs())
	if err := s.segs[i].LoadTree(name, root); err != nil {
		return err
	}
	s.track(name, i, local)
	s.shardGauge(i)
	return nil
}

// LoadString parses and loads an XML document.
func (s *DB) LoadString(name, src string) error {
	root, err := xmltree.ParseString(src)
	if err != nil {
		return fmt.Errorf("shard: load %s: %w", name, err)
	}
	return s.LoadTree(name, root)
}

// LoadReader parses and loads an XML document from r.
func (s *DB) LoadReader(name string, r io.Reader) error {
	root, err := xmltree.Parse(r)
	if err != nil {
		return fmt.Errorf("shard: load %s: %w", name, err)
	}
	return s.LoadTree(name, root)
}

// LoadFile parses and loads an XML file; the document name is the file's
// base name.
func (s *DB) LoadFile(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return fmt.Errorf("shard: %w", err)
	}
	defer f.Close()
	return s.LoadReader(filepath.Base(path), f)
}

// DocumentCount returns the number of live (non-deleted) documents across
// all segments without forcing index construction.
func (s *DB) DocumentCount() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.byName)
}

// DocName returns the name of a globally-numbered document.
func (s *DB) DocName(doc storage.DocID) string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if int(doc) < 0 || int(doc) >= len(s.names) {
		return ""
	}
	return s.names[doc]
}

// Warm builds every segment's inverted index, in parallel. Call before
// serving concurrent queries, so no query pays (or races on) the build.
func (s *DB) Warm() {
	var wg sync.WaitGroup
	for _, seg := range s.segs {
		wg.Add(1)
		go func(g *db.DB) {
			defer wg.Done()
			g.Warm()
		}(seg)
	}
	wg.Wait()
}

// Stats aggregates the segment statistics (forcing index construction).
// Terms counts the distinct terms of the union vocabulary, matching what
// a monolithic database over the same corpus would report.
func (s *DB) Stats() db.Stats {
	s.Warm()
	var st db.Stats
	vocab := map[string]bool{}
	for _, seg := range s.segs {
		sub := seg.Stats()
		st.Documents += sub.Documents
		st.Nodes += sub.Nodes
		st.Elements += sub.Elements
		st.Occurrences += sub.Occurrences
		for _, term := range seg.Index().TermsByFreq() {
			vocab[term] = true
		}
	}
	st.Terms = len(vocab)
	return st
}

// toGlobal rewrites segment-local document ids to global ids, in place.
// Within one shard the local order is a subsequence of the global order,
// so the rewrite preserves any (score, doc, ord) sorting.
func (s *DB) toGlobal(shard int, nodes []exec.ScoredNode) {
	ids := s.globalIDs(shard)
	for i := range nodes {
		nodes[i].Doc = ids[nodes[i].Doc]
	}
}

// Materialize returns the xmltree subtree for a result element (global
// document id).
func (s *DB) Materialize(doc storage.DocID, ord int32) *xmltree.Node {
	ref, ok := s.refOf(doc)
	if !ok {
		return nil
	}
	return storage.NewAccessor(s.segs[ref.shard].Store()).Materialize(ref.local, ord)
}

// NameOf returns the element tag name of a scored node (global document
// id; see Render).
func (s *DB) NameOf(n exec.ScoredNode) string {
	var one [1]string
	return s.Render(one[:0], []exec.ScoredNode{n})[0]
}

// Render appends each node's label to dst (global document ids; see
// db.DB.Render). The routing lock is taken once for the batch; the nodes
// are grouped by segment, and each segment renders its group in one call.
// A document no segment holds renders as "".
func (s *DB) Render(dst []string, nodes []exec.ScoredNode) []string {
	type placed struct {
		shard int
		at    int // index into nodes
	}
	base := len(dst)
	dst = append(dst, make([]string, len(nodes))...)
	places := make([]placed, 0, len(nodes))
	local := make([]exec.ScoredNode, 0, len(nodes))
	s.mu.RLock()
	for i, n := range nodes {
		if ref, ok := s.refLocked(n.Doc); ok {
			places = append(places, placed{ref.shard, i})
			local = append(local, exec.ScoredNode{Doc: ref.local, Ord: n.Ord})
		}
	}
	s.mu.RUnlock()
	// Partition in place, one segment at a time: places[lo:hi] and
	// local[lo:hi] become segment k's group.
	labels := make([]string, 0, len(local))
	lo := 0
	for k, seg := range s.segs {
		hi := lo
		for j := lo; j < len(places); j++ {
			if places[j].shard == k {
				places[hi], places[j] = places[j], places[hi]
				local[hi], local[j] = local[j], local[hi]
				hi++
			}
		}
		if hi > lo {
			labels = seg.Render(labels, local[lo:hi])
		}
		lo = hi
	}
	for j, p := range places {
		dst[base+p.at] = labels[j]
	}
	return dst
}
