package rescache

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"strings"
	"unicode"

	"repro/internal/exec"
)

// Cache keys. A key is an injective encoding of (query family, generation
// token, canonicalized query, effective resource limits), optionally
// extended with a reply cap (Capped): two calls share a key exactly when
// the server is obliged to return byte-identical replies for them. The
// token is the caller's: it must move whenever the data the request reads
// may have changed, and need move at no other time. The server passes,
// for TermKey and PhraseKey, the backend's TermsToken — the sum over its
// segments (and replicas) of the largest generation of the request's own
// terms, which a write that touches none of them, or a compaction, leaves
// alone — and for QueryKey the backend's CacheToken, the sum of the
// corpus generations. Injectivity is
// load-bearing — a collision between two non-equivalent queries would
// serve one query's results for the other — so every variable-length
// field is length-prefixed (no separator to inject through) and
// FuzzCacheKey attacks the property directly.
//
// Canonicalization goes the other way: spellings the engine provably
// cannot distinguish are folded together so they share cache entries.
//
//   - Extended-XQuery sources are whitespace-normalized outside string
//     literals (the xq lexer skips any whitespace run between tokens, and
//     the Return clause's raw template only affects rendering, which is
//     never cached).
//   - Trailing 1.0 term weights are trimmed: scoring.SimpleScorer and
//     ComplexScorer default every out-of-range weight to 1.
//   - TopK and MinScore at or below zero mean "disabled" and fold to 0.
//
// The key holds exactly the request fields that can change results.
// Which operator answers (pruned TopKTermJoin or exhaustive TermJoin) and
// how many shard workers run it are not request fields: db.SearchTerms
// chooses the operator by rule, and exec.RankedBefore's total order makes
// the fan-out's scheduling invisible.

// Family tags the query family a key belongs to, so identical payloads
// from different entry points can never collide.
type family byte

const (
	familyTerms  family = 't'
	familyPhrase family = 'p'
	familyQuery  family = 'q'
)

// Key identifies one cacheable computation. The zero Key is invalid.
type Key struct {
	raw string // injective encoding incl. family and generation token
	gen uint64
}

// Generation returns the generation token baked into the key.
func (k Key) Generation() uint64 { return k.gen }

// shardIndex hashes the key onto one of n cache stripes.
func (k Key) shardIndex(n int) int {
	h := fnv.New32a()
	_, _ = h.Write([]byte(k.raw))
	return int(h.Sum32() % uint32(n))
}

// keyEnc builds the length-prefixed encoding.
type keyEnc struct{ b []byte }

func newKeyEnc(f family, gen uint64) *keyEnc {
	e := &keyEnc{b: make([]byte, 0, 64)}
	e.b = append(e.b, byte(f))
	e.b = binary.BigEndian.AppendUint64(e.b, gen)
	return e
}

func (e *keyEnc) str(s string) {
	e.b = binary.AppendUvarint(e.b, uint64(len(s)))
	e.b = append(e.b, s...)
}

func (e *keyEnc) strs(ss []string) {
	e.b = binary.AppendUvarint(e.b, uint64(len(ss)))
	for _, s := range ss {
		e.str(s)
	}
}

func (e *keyEnc) i64(v int64) {
	e.b = binary.AppendVarint(e.b, v)
}

func (e *keyEnc) f64(v float64) {
	e.b = binary.BigEndian.AppendUint64(e.b, math.Float64bits(v))
}

func (e *keyEnc) bool(v bool) {
	if v {
		e.b = append(e.b, 1)
	} else {
		e.b = append(e.b, 0)
	}
}

func (e *keyEnc) limits(l exec.Limits) {
	e.i64(int64(l.Timeout))
	e.i64(l.MaxResults)
	e.i64(l.MaxAccesses)
	e.i64(int64(l.CheckEvery))
}

func (e *keyEnc) key(gen uint64) Key {
	return Key{raw: string(e.b), gen: gen}
}

// TermOpts are the result-relevant term-search options entering the key:
// the fields of db.TermSearchOptions minus the execution hints.
type TermOpts struct {
	Complex  bool
	TopK     int
	MinScore float64
	Weights  []float64
	// Limits is the effective per-call budget (after the database default
	// has been applied).
	Limits exec.Limits
}

// canonWeights trims trailing 1.0 entries: the scorers default every
// weight past the end of the slice to 1, so the spellings are equivalent.
func canonWeights(w []float64) []float64 {
	n := len(w)
	for n > 0 && w[n-1] == 1 {
		n--
	}
	return w[:n]
}

// TermKey builds the cache key for a term search.
func TermKey(gen uint64, terms []string, o TermOpts) Key {
	e := newKeyEnc(familyTerms, gen)
	e.strs(terms)
	e.bool(o.Complex)
	topK := o.TopK
	if topK < 0 {
		topK = 0
	}
	e.i64(int64(topK))
	min := o.MinScore
	if min <= 0 {
		min = 0
	}
	e.f64(min)
	w := canonWeights(o.Weights)
	e.i64(int64(len(w)))
	for _, v := range w {
		e.f64(v)
	}
	e.limits(o.Limits)
	return e.key(gen)
}

// PhraseKey builds the cache key for a phrase search.
func PhraseKey(gen uint64, phrase []string, limits exec.Limits) Key {
	e := newKeyEnc(familyPhrase, gen)
	e.strs(phrase)
	e.limits(limits)
	return e.key(gen)
}

// QueryKey builds the cache key for an extended-XQuery evaluation.
func QueryKey(gen uint64, src string, limits exec.Limits) Key {
	e := newKeyEnc(familyQuery, gen)
	e.str(NormalizeQuery(src))
	e.limits(limits)
	return e.key(gen)
}

// Capped extends k with the most results a reply lists: the server
// truncates /phrase and /query replies to its MaxResults, so replies
// under different caps must not share an entry. Every base encoding is
// self-delimiting (fixed-width or length-prefixed fields), so appending
// one more field keeps the encoding injective.
func (k Key) Capped(maxResults int) Key {
	var b [binary.MaxVarintLen64]byte
	n := binary.PutVarint(b[:], int64(maxResults))
	return Key{raw: k.raw + string(b[:n]), gen: k.gen}
}

// typographic quote pairs accepted by the xq lexer, checked in the same
// order.
var quotePairs = []struct{ open, close string }{
	{"‘‘", "’’"}, {"“", "”"},
}

// NormalizeQuery collapses every whitespace run outside a string literal
// to a single space and trims the ends. The scan mirrors the xq lexer
// byte for byte — the same four quote forms, no escapes, and the lexer's
// per-byte unicode.IsSpace test — so two sources normalize equal only if
// the lexer tokenizes them identically. Unterminated literals (a parse
// error downstream) are carried verbatim to keep the fold deterministic.
func NormalizeQuery(src string) string {
	var b strings.Builder
	b.Grow(len(src))
	pend := false // a whitespace run is pending
	sep := func() {
		if pend && b.Len() > 0 {
			b.WriteByte(' ')
		}
		pend = false
	}
	i := 0
scan:
	for i < len(src) {
		for _, q := range quotePairs {
			if strings.HasPrefix(src[i:], q.open) {
				end := strings.Index(src[i+len(q.open):], q.close)
				sep()
				if end < 0 {
					b.WriteString(src[i:])
					i = len(src)
				} else {
					tot := len(q.open) + end + len(q.close)
					b.WriteString(src[i : i+tot])
					i += tot
				}
				continue scan
			}
		}
		c := src[i]
		if c == '"' || c == '\'' {
			end := strings.IndexByte(src[i+1:], c)
			sep()
			if end < 0 {
				b.WriteString(src[i:])
				i = len(src)
			} else {
				b.WriteString(src[i : i+end+2])
				i += end + 2
			}
			continue
		}
		if unicode.IsSpace(rune(c)) {
			pend = true
			i++
			continue
		}
		sep()
		b.WriteByte(c)
		i++
	}
	return b.String()
}
