package shard

import (
	"repro/internal/exec"
	"repro/internal/rescache"
)

// Result caching. The facade builds the result cache (Options.CacheBytes,
// EnableResultCache) but does not consult it: the server looks encoded
// replies up in it, keyed by the tokens below, before a request reaches
// the facade (DESIGN.md §13). Facade library calls are uncached.

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

// TermsToken returns the token a /terms or /phrase cache key over terms
// is minted under: the sum over the segments of each one's largest
// generation among the terms. A generation only grows, and a write that
// touches a term raises it above every earlier generation of its segment,
// so the sum moves exactly when one of the terms' posting lists may have
// changed. ok=false as for CacheToken. It takes no lock and allocates
// nothing.
func (s *DB) TermsToken(terms []string) (uint64, bool) {
	var sum uint64
	for _, seg := range s.segs {
		g, ok := seg.TermsGeneration(terms)
		if !ok {
			return 0, false
		}
		sum += g
	}
	return sum, true
}

// Limits returns the default per-query resource budget, which every
// cache key includes.
func (s *DB) Limits() exec.Limits { return s.opts.Limits }

// EnableResultCache attaches a result cache with the given byte budget.
// No-op when one is attached already or maxBytes is not positive.
func (s *DB) EnableResultCache(maxBytes int64) {
	c := rescache.New(rescache.Config{
		MaxBytes: maxBytes,
		Metrics:  s.MetricsRegistry(),
	})
	if c != nil {
		s.cache.CompareAndSwap(nil, c)
	}
}

// ResultCache returns the attached cache, or nil.
func (s *DB) ResultCache() *rescache.Cache { return s.cache.Load() }

// Close releases the database. It owns no background resource beyond an
// in-flight compaction (see WaitCompaction), so today it does nothing;
// the database remains usable for queries afterwards.
func (s *DB) Close() {}
