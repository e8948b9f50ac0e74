// Package rescache is a sharded, bounded-memory reply cache for the HTTP
// server, keyed by (normalized request, effective limits, reply cap,
// generation token) and holding encoded reply bytes. The token makes
// invalidation exact and free: it moves whenever the data a request reads
// may have changed, callers key lookups by the token they observe before
// dispatch, and so a stale entry is simply never looked up again. The
// backend chooses the token per family (DESIGN.md §13): /terms and
// /phrase are keyed by the generations of the request's own terms, so a
// write to unrelated documents or a compaction invalidates nothing, and
// /query by the corpus generation; a fleet sums its replicas' tokens.
// Unreachable entries age out of an LRU with per-entry cost accounting,
// which bounds memory. The shard facade builds the cache
// (shard.Options.CacheBytes) but no longer consults it.
//
// Coherence argument (DESIGN.md §13): a caller reads the token g before
// computing, and the snapshot it then evaluates over is at least as new
// as g. An entry stored under g therefore never holds results older than
// g; it can hold results newer than g only when a mutation was in flight
// during the compute, and the entry is only ever served to callers that
// also observed g — i.e. whose requests are themselves concurrent with
// that mutation, for which serving the newer result is a valid
// linearization. Once the mutation completes, every new caller observes
// a later token and the entry is unreachable. In quiescent states cached
// replies are exactly the uncached replies; the differential suite
// asserts byte equality.
package rescache

import (
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"

	"repro/internal/metrics"
)

// Config configures a cache.
type Config struct {
	// MaxBytes is the total memory budget, divided evenly across the
	// stripes. Required (New returns nil when it is not positive).
	MaxBytes int64
	// Shards is the number of independently-locked stripes (default 16).
	Shards int
	// Metrics receives the tix_rescache_* instrumentation (default: the
	// process-wide registry).
	Metrics *metrics.Registry
}

// entry is one cached result, a node of its stripe's intrusive LRU list.
type entry struct {
	key        string
	gen        uint64
	val        any
	cost       int64
	prev, next *entry
}

// stripe is one independently-locked cache shard with its own LRU order
// and byte budget.
type stripe struct {
	mu      sync.Mutex
	entries map[string]*entry
	head    *entry // most recently used
	tail    *entry // least recently used
	bytes   int64
}

// Cache is a sharded LRU result cache. All methods are safe for
// concurrent use.
type Cache struct {
	stripes  []*stripe
	perShard int64

	// Monotonic counters for Stats; mirrored into the metrics registry.
	hits, misses, puts, updates  atomic.Int64
	evictions, rejected, genmiss atomic.Int64
	curBytes, curEntries         atomic.Int64
	mHits, mMisses, mEvictions   *metrics.Counter
	mRejected, mGenMiss          *metrics.Counter
	mBytes, mEntries             *metrics.Gauge
}

// entryOverhead approximates the fixed per-entry bookkeeping cost (entry
// struct, map bucket share, interface header) charged on top of the key
// and value bytes.
const entryOverhead = 120

// New creates a cache. Returns nil when cfg.MaxBytes is not positive — a
// nil *Cache is not usable, so callers gate on it.
func New(cfg Config) *Cache {
	if cfg.MaxBytes <= 0 {
		return nil
	}
	if cfg.Shards <= 0 {
		cfg.Shards = 16
	}
	if int64(cfg.Shards) > cfg.MaxBytes {
		cfg.Shards = 1
	}
	reg := cfg.Metrics
	if reg == nil {
		reg = metrics.Default
	}
	c := &Cache{
		stripes:  make([]*stripe, cfg.Shards),
		perShard: cfg.MaxBytes / int64(cfg.Shards),

		mHits:      reg.Counter("tix_rescache_hits_total"),
		mMisses:    reg.Counter("tix_rescache_misses_total"),
		mEvictions: reg.Counter("tix_rescache_evictions_total"),
		mRejected:  reg.Counter("tix_rescache_rejected_total"),
		mGenMiss:   reg.Counter("tix_rescache_genmiss_total"),
		mBytes:     reg.Gauge("tix_rescache_bytes"),
		mEntries:   reg.Gauge("tix_rescache_entries"),
	}
	for i := range c.stripes {
		c.stripes[i] = &stripe{entries: map[string]*entry{}}
	}
	return c
}

// Close is a no-op: the cache owns no goroutine. It remains for callers
// that release a cache when done with it.
func (c *Cache) Close() {}

// list manipulation; caller holds s.mu.

func (s *stripe) pushFront(e *entry) {
	e.prev = nil
	e.next = s.head
	if s.head != nil {
		s.head.prev = e
	}
	s.head = e
	if s.tail == nil {
		s.tail = e
	}
}

func (s *stripe) unlink(e *entry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		s.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		s.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

func (s *stripe) moveFront(e *entry) {
	if s.head == e {
		return
	}
	s.unlink(e)
	s.pushFront(e)
}

// removeLocked drops e from the stripe and returns its cost.
func (s *stripe) removeLocked(e *entry) int64 {
	s.unlink(e)
	delete(s.entries, e.key)
	s.bytes -= e.cost
	return e.cost
}

// Get returns the value cached under k. The caller must not mutate the
// returned value.
func (c *Cache) Get(k Key) (any, bool) {
	s := c.stripes[k.shardIndex(len(c.stripes))]
	s.mu.Lock()
	e, ok := s.entries[k.raw]
	if !ok {
		s.mu.Unlock()
		c.misses.Add(1)
		c.mMisses.Inc()
		return nil, false
	}
	if e.gen != k.gen {
		// Defense in depth: the token is part of the encoded key, so
		// a mismatch can only mean a key-encoding bug. Refuse the hit and
		// drop the entry rather than risk serving a stale result; the
		// chaos drill asserts this counter stays zero.
		cost := s.removeLocked(e)
		s.mu.Unlock()
		c.accountRemoval(1, cost)
		c.genmiss.Add(1)
		c.mGenMiss.Inc()
		c.misses.Add(1)
		c.mMisses.Inc()
		return nil, false
	}
	s.moveFront(e)
	v := e.val
	s.mu.Unlock()
	c.hits.Add(1)
	c.mHits.Inc()
	return v, true
}

// Put caches v under k at the given cost (bytes; the key and fixed entry
// overhead are added). Oversized entries — cost above a full stripe
// budget — are rejected rather than evicting an entire stripe for one
// entry. The caller must not mutate v afterwards.
func (c *Cache) Put(k Key, v any, cost int64) {
	if cost < 0 {
		cost = 0
	}
	cost += int64(len(k.raw)) + entryOverhead
	if cost > c.perShard {
		c.rejected.Add(1)
		c.mRejected.Inc()
		return
	}
	s := c.stripes[k.shardIndex(len(c.stripes))]
	var evicted int
	var freed int64
	s.mu.Lock()
	if e, ok := s.entries[k.raw]; ok {
		s.bytes += cost - e.cost
		c.curBytes.Add(cost - e.cost)
		e.val, e.cost, e.gen = v, cost, k.gen
		s.moveFront(e)
		c.updates.Add(1)
	} else {
		e = &entry{key: k.raw, gen: k.gen, val: v, cost: cost}
		s.entries[k.raw] = e
		s.pushFront(e)
		s.bytes += cost
		c.curBytes.Add(cost)
		c.curEntries.Add(1)
		c.puts.Add(1)
	}
	for s.bytes > c.perShard && s.tail != nil && s.tail != s.head {
		freed += s.removeLocked(s.tail)
		evicted++
	}
	s.mu.Unlock()
	if evicted > 0 {
		c.accountRemoval(evicted, freed)
	}
	c.mBytes.Set(c.curBytes.Load())
	c.mEntries.Set(c.curEntries.Load())
}

// accountRemoval updates the global accounting for n removed entries
// worth freed bytes.
func (c *Cache) accountRemoval(n int, freed int64) {
	c.curBytes.Add(-freed)
	c.curEntries.Add(int64(-n))
	c.evictions.Add(int64(n))
	c.mEvictions.Add(int64(n))
	c.mBytes.Set(c.curBytes.Load())
	c.mEntries.Set(c.curEntries.Load())
}

// Stats is a consistent-enough snapshot of the cache counters for tests
// and introspection. In a quiescent cache Puts - Evictions == Entries
// and Bytes equals the summed entry costs.
type Stats struct {
	Hits, Misses      int64
	Puts, Updates     int64
	Evictions         int64
	Rejected, GenMiss int64
	Bytes, Entries    int64
}

// Stats returns the current counter values.
func (c *Cache) Stats() Stats {
	return Stats{
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Puts:      c.puts.Load(),
		Updates:   c.updates.Load(),
		Evictions: c.evictions.Load(),
		Rejected:  c.rejected.Load(),
		GenMiss:   c.genmiss.Load(),
		Bytes:     c.curBytes.Load(),
		Entries:   c.curEntries.Load(),
	}
}

// GetSlice returns a defensive copy of the slice cached under k, so a
// caller that rewrites results in place cannot corrupt the cached master.
// GetSlice and PutSlice have no production caller: they remain only for
// the benchmark's traced replay (benchmark/replay.go), which still prices
// a hit as a slice round trip, and go when that attribution moves to the
// server (ROADMAP item 1).
func GetSlice[T any](c *Cache, k Key) ([]T, bool) {
	v, ok := c.Get(k)
	if !ok {
		return nil, false
	}
	s, ok := v.([]T)
	if !ok {
		return nil, false
	}
	if s == nil {
		return nil, true
	}
	out := make([]T, len(s))
	copy(out, s)
	return out, true
}

// PutSlice caches a private copy of s under k, costed at the slice's
// backing-array footprint. A nil slice round-trips as nil. See GetSlice
// for why it remains.
func PutSlice[T any](c *Cache, k Key, s []T) {
	var cp []T
	if s != nil {
		cp = make([]T, len(s))
		copy(cp, s)
	}
	elem := int64(reflect.TypeOf((*T)(nil)).Elem().Size())
	c.Put(k, cp, 24+int64(len(s))*elem)
}

// checkInvariants recomputes the per-stripe accounting from scratch and
// reports any divergence from the atomics — the stress suite's oracle.
func (c *Cache) checkInvariants() error {
	var bytes, entries int64
	for _, s := range c.stripes {
		s.mu.Lock()
		var sb int64
		var n int64
		for e := s.head; e != nil; e = e.next {
			sb += e.cost
			n++
		}
		if sb != s.bytes {
			s.mu.Unlock()
			return fmt.Errorf("stripe bytes %d != recomputed %d", s.bytes, sb)
		}
		if n != int64(len(s.entries)) {
			s.mu.Unlock()
			return fmt.Errorf("stripe list length %d != map size %d", n, len(s.entries))
		}
		if s.bytes < 0 {
			s.mu.Unlock()
			return fmt.Errorf("stripe bytes negative: %d", s.bytes)
		}
		bytes += sb
		entries += n
		s.mu.Unlock()
	}
	// The atomics lag the stripe locks under concurrency; they must match
	// exactly only once the cache is quiescent, which is when the stress
	// suite calls this.
	if got := c.curBytes.Load(); got != bytes {
		return fmt.Errorf("bytes counter %d != recomputed %d", got, bytes)
	}
	if got := c.curEntries.Load(); got != entries {
		return fmt.Errorf("entries counter %d != recomputed %d", got, entries)
	}
	st := c.Stats()
	if st.Puts-st.Evictions != st.Entries {
		return fmt.Errorf("puts %d - evictions %d != entries %d", st.Puts, st.Evictions, st.Entries)
	}
	return nil
}
