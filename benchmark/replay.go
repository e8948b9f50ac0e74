package main

import (
	"context"
	"sort"
	"time"

	"repro/internal/db"
	"repro/internal/exec"
	"repro/internal/rescache"
	"repro/internal/shard"
	"repro/internal/storage"
	"repro/internal/xq"
)

// Layers below the facade are concrete types the benchmark cannot wrap,
// so they are priced by replay: the requests the traced phase sent most
// are re-issued directly against the facade, each segment, the exec
// operators and the raw postings cursors, and the differences between
// those levels are the layers' shares.

const (
	replaySample = 24 // distinct requests priced, most frequent first
	replayReps   = 5  // timed calls per level; the median is kept
)

// timeMedian runs fn replayReps times after one untimed call and
// returns the median duration in microseconds.
func timeMedian(fn func()) float64 {
	fn()
	ts := make([]float64, replayReps)
	for i := range ts {
		t0 := time.Now()
		fn()
		ts[i] = float64(time.Since(t0)) / 1e3
	}
	return median(ts)
}

// priced is one request's cost at each level, in microseconds.
type priced struct {
	weight   float64 // share of the traced phase's reads
	route    route
	facade   float64 // shard.DB as configured: the hit path when cached
	segMax   float64 // slowest segment, the one the fan-out waits for
	execSeg  float64 // the operator alone, on that slowest segment
	parse    float64 // xq.Parse, query route only
	cacheRT  float64 // TermKey + PutSlice + GetSlice on this request's result
	postings int64   // postings in this request's lists, all segments
	decodeNs float64 // full cursor scan of those lists
}

func termOpts(r *request) db.TermSearchOptions {
	topK := r.topK
	if topK <= 0 || topK > maxResults {
		topK = maxResults // what the server's handler asks the backend for
	}
	return db.TermSearchOptions{TopK: topK, Complex: r.complex}
}

// execOnly runs the operator the segment would run, with no facade
// around it.
func execOnly(seg *db.DB, r *request) {
	idx := seg.Index()
	switch r.route {
	case rPhrase:
		pf := &exec.PhraseFinder{Index: idx, Phrase: r.terms}
		_, _ = exec.CollectPhrase(pf.Run)
	default:
		tj := &exec.TermJoin{
			Index: idx, Acc: storage.NewAccessor(idx.Store()),
			Query: exec.TermQuery{Terms: r.terms, Complex: r.complex, Scorer: exec.DefaultScorer{}},
		}
		tk := exec.NewTopK(termOpts(r).TopK)
		_ = tj.Run(tk.Emit())
		_ = tk.Results()
	}
}

func callFacade(ctx context.Context, d *shard.DB, r *request) {
	switch r.route {
	case rPhrase:
		_, _ = d.PhraseSearchContext(ctx, r.terms)
	case rQuery:
		_, _ = d.QueryContext(ctx, r.query)
	default:
		_, _ = d.TermSearchContext(ctx, r.terms, termOpts(r))
	}
}

func callSegment(ctx context.Context, seg *db.DB, r *request) {
	switch r.route {
	case rPhrase:
		_, _ = seg.PhraseSearchContext(ctx, r.terms)
	case rQuery:
		_, _ = seg.QueryContext(ctx, r.query)
	default:
		_, _ = seg.TermSearchContext(ctx, r.terms, termOpts(r))
	}
}

// cacheRoundTrip prices what the result cache adds to a miss and a hit:
// encoding the key, storing a copy of the result, reading a copy back.
func cacheRoundTrip[T any](c *rescache.Cache, res []T, key func() rescache.Key) float64 {
	return timeMedian(func() {
		k := key()
		rescache.PutSlice(c, k, res)
		_, _ = rescache.GetSlice[T](c, k)
	})
}

// priceRequest measures one read at every level below the wire. Errors
// are ignored here: the same requests were just answered and checked
// through the socket.
func priceRequest(ctx context.Context, d *shard.DB, cache *rescache.Cache, r *request) priced {
	p := priced{route: r.route}
	p.facade = timeMedian(func() { callFacade(ctx, d, r) })
	segs := []int{}
	if r.route == rQuery {
		// An xq query runs on the one segment that owns its document.
		if i, ok := d.ShardOf(articlesName); ok {
			segs = append(segs, i)
		}
		p.parse = timeMedian(func() { _, _ = xq.Parse(r.query) })
	} else {
		for i := 0; i < d.Shards(); i++ {
			segs = append(segs, i)
		}
	}
	for _, i := range segs {
		seg := d.Segment(i)
		t := timeMedian(func() { callSegment(ctx, seg, r) })
		if t < p.segMax {
			continue
		}
		p.segMax = t
		if r.route != rQuery {
			p.execSeg = timeMedian(func() { execOnly(seg, r) })
		}
	}
	if p.execSeg > p.segMax {
		p.execSeg = p.segMax
	}

	switch r.route {
	case rPhrase:
		res, _ := d.PhraseSearchContext(ctx, r.terms)
		p.cacheRT = cacheRoundTrip(cache, res, func() rescache.Key { return rescache.PhraseKey(1, r.terms, exec.Limits{}) })
	case rQuery:
		res, _ := d.QueryContext(ctx, r.query)
		p.cacheRT = cacheRoundTrip(cache, res, func() rescache.Key { return rescache.QueryKey(1, r.query, exec.Limits{}) })
	default:
		o := termOpts(r)
		res, _ := d.TermSearchContext(ctx, r.terms, o)
		p.cacheRT = cacheRoundTrip(cache, res, func() rescache.Key {
			return rescache.TermKey(1, r.terms, rescache.TermOpts{Complex: o.Complex, TopK: o.TopK})
		})
	}

	if r.route != rQuery {
		t0 := time.Now()
		for i := 0; i < d.Shards(); i++ {
			idx := d.Segment(i).Index()
			for _, term := range r.terms {
				for cur := idx.List(term).Cursor(); cur.Valid(); cur.Advance() {
					p.postings++
				}
			}
		}
		p.decodeNs = float64(time.Since(t0))
	}
	return p
}

// replayCounts tallies how often each distinct read was sent.
func replayCounts(pl *plan, from, n int) map[int32]int {
	counts := map[int32]int{}
	for i := 0; i < n; i++ {
		if v := pl.seq[(from+i)%len(pl.seq)]; v >= 0 {
			counts[v]++
		}
	}
	return counts
}

// replay prices the most frequent reads of the traced phase.
func replay(d *shard.DB, pl *plan, counts map[int32]int) []priced {
	ids := make([]int32, 0, len(counts))
	for id := range counts {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(a, b int) bool {
		if counts[ids[a]] != counts[ids[b]] {
			return counts[ids[a]] > counts[ids[b]]
		}
		return ids[a] < ids[b]
	})
	if len(ids) > replaySample {
		ids = ids[:replaySample]
	}
	total := 0
	for _, id := range ids {
		total += counts[id]
	}
	cache := rescache.New(rescache.Config{MaxBytes: cacheBudget})
	defer cache.Close()
	ctx := context.Background()
	out := make([]priced, 0, len(ids))
	for _, id := range ids {
		p := priceRequest(ctx, d, cache, &pl.reads[id])
		p.weight = float64(counts[id]) / float64(total)
		out = append(out, p)
	}
	return out
}
