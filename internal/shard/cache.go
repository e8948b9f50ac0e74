package shard

import (
	"repro/internal/rescache"
)

// Result caching. The cache sits at the facade: TermSearchContext,
// PhraseSearchContext and QueryContext consult it before evaluating, keyed
// by (canonicalized request, effective limits, generation token), so one
// logical query is cached once, after the per-shard merge and the
// local→global id translation. The token depends on the family. A /terms
// or /phrase reply is a function of its own terms' postings only (the
// scorers use no cross-document statistics), so its token is the sum over
// the segments of the largest generation of those terms: it moves exactly
// when a write touches a document holding one of them, and a write to
// other documents or a compaction leaves the entry reachable. A /query
// token is the sum of the segments' corpus generations, which every
// mutation and fold advances. Only successful evaluations are cached;
// hits still flow through the per-op metrics with zero store accesses.
// Cached slices are copied on both put and get, so the facade's in-place
// id rewrites can never corrupt a cached master.

// CacheToken returns the generation token /query cache keys are minted
// under: the sum of the segment generations, which advances on every
// routed mutation. ok=false while any segment lacks a live index (bulk
// loading), when segment store appends would not move the sum.
func (s *DB) CacheToken() (uint64, bool) {
	var sum uint64
	for _, seg := range s.segs {
		g, ok := seg.CacheToken()
		if !ok {
			return 0, false
		}
		sum += g
	}
	return sum, true
}

// EnableResultCache attaches a facade result cache with the given byte
// budget. No-op when one is attached already or maxBytes is not positive.
func (s *DB) EnableResultCache(maxBytes int64) {
	c := rescache.New(rescache.Config{
		MaxBytes: maxBytes,
		Metrics:  s.MetricsRegistry(),
	})
	if c != nil {
		s.cache.CompareAndSwap(nil, c)
	}
}

// ResultCache returns the attached facade cache, or nil.
func (s *DB) ResultCache() *rescache.Cache { return s.cache.Load() }

// Close releases the database. It owns no background resource beyond an
// in-flight compaction (see WaitCompaction), so today it does nothing;
// the database remains usable for queries afterwards.
func (s *DB) Close() {}

// queryCache returns the facade cache and the /query token to key with,
// or ok=false when this call must bypass caching.
func (s *DB) queryCache() (*rescache.Cache, uint64, bool) {
	c := s.cache.Load()
	if c == nil {
		return nil, 0, false
	}
	tok, ok := s.CacheToken()
	if !ok {
		return nil, 0, false
	}
	return c, tok, true
}

// termsCache returns the facade cache and the /terms or /phrase token to
// key a request over terms with, or ok=false when this call must bypass
// caching. The token is the sum over the segments of each one's largest
// generation among the terms. A generation only grows, and a write that
// touches a term raises it above every earlier generation of its segment,
// so the sum moves exactly when one of the terms' posting lists may have
// changed. It takes no lock and allocates nothing.
func (s *DB) termsCache(terms []string) (*rescache.Cache, uint64, bool) {
	c := s.cache.Load()
	if c == nil {
		return nil, 0, false
	}
	var sum uint64
	for _, seg := range s.segs {
		g, ok := seg.TermsGeneration(terms)
		if !ok {
			return nil, 0, false
		}
		sum += g
	}
	return c, sum, true
}
