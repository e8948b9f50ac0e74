// Package tokenize provides the word tokenizer shared by the inverted index
// (internal/index) and the scoring functions (internal/scoring).
//
// A token is a maximal run of letters and digits; tokens are lowercased so
// that indexing and query matching are case-insensitive. The tokenizer
// reports the word offset of each token — the same word-granular positions
// used by the region encoding in internal/xmltree — which is what lets
// PhraseFinder verify phrase adjacency during posting-list intersection.
package tokenize

import (
	"strings"
	"unicode"
)

// Token is one word occurrence in a piece of character data.
type Token struct {
	// Term is the lowercased token text.
	Term string
	// Offset is the 0-based word offset of the token within its text node.
	Offset uint32
}

// Tokenizer splits character data into tokens. The zero value is ready to
// use and keeps stopwords; use NewWithStopwords to drop them.
type Tokenizer struct {
	stop map[string]bool
	stem bool
}

// New returns a tokenizer that keeps every token.
func New() *Tokenizer { return &Tokenizer{} }

// NewStemming returns a tokenizer that additionally applies a light
// plural-stripping stemmer, so that "engines" and "engine" index and match
// as the same term. The paper's worked example (Figures 5–8) scores
// "search engines" as an occurrence of the phrase "search engine"; this
// tokenizer reproduces that behaviour.
func NewStemming() *Tokenizer { return &Tokenizer{stem: true} }

// NewWithStopwords returns a tokenizer that drops the given words (compared
// after lowercasing). Dropped words still consume a word offset, so phrase
// adjacency over the remaining words is preserved.
func NewWithStopwords(words []string) *Tokenizer {
	t := &Tokenizer{stop: make(map[string]bool, len(words))}
	for _, w := range words {
		t.stop[strings.ToLower(w)] = true
	}
	return t
}

// DefaultStopwords is a small English stopword list suitable for the
// IR-style workloads in the paper's evaluation.
var DefaultStopwords = []string{
	"a", "an", "and", "are", "as", "at", "be", "but", "by", "for", "if",
	"in", "into", "is", "it", "no", "not", "of", "on", "or", "such",
	"that", "the", "their", "then", "there", "these", "they", "this",
	"to", "was", "will", "with",
}

func isTokenRune(r rune) bool {
	return unicode.IsLetter(r) || unicode.IsDigit(r)
}

// Tokenize splits s into tokens with word offsets. Word offsets count every
// token, including stopwords that are subsequently dropped.
func (t *Tokenizer) Tokenize(s string) []Token {
	var out []Token
	t.Each(s, func(term string, offset uint32) {
		out = append(out, Token{Term: term, Offset: offset})
	})
	return out
}

// Each calls fn with every token Tokenize would return, in order, without
// building the slice. A term is a substring of s unless normalization
// rewrote it.
func (t *Tokenizer) Each(s string, fn func(term string, offset uint32)) {
	off := uint32(0)
	start := -1
	for i, r := range s {
		if isTokenRune(r) {
			if start < 0 {
				start = i
			}
			continue
		}
		if start >= 0 {
			t.emit(s[start:i], off, fn)
			off++
			start = -1
		}
	}
	if start >= 0 {
		t.emit(s[start:], off, fn)
	}
}

// emit normalizes one word and hands it to fn unless it is a stopword.
func (t *Tokenizer) emit(word string, off uint32, fn func(term string, offset uint32)) {
	term := t.Normalize(word)
	if t.stop == nil || !t.stop[term] {
		fn(term, off)
	}
}

// Terms returns just the token terms of s, in order.
func (t *Tokenizer) Terms(s string) []string {
	toks := t.Tokenize(s)
	out := make([]string, len(toks))
	for i, tk := range toks {
		out[i] = tk.Term
	}
	return out
}

// Normalize lowercases (and, for stemming tokenizers, stems) a query term
// so it compares equal to indexed tokens.
func (t *Tokenizer) Normalize(term string) string {
	term = strings.ToLower(term)
	if t.stem {
		term = stem(term)
	}
	return term
}

// stem applies light plural stripping: a trailing "s" is removed from terms
// of length ≥ 4 unless they end in "ss" or "us".
func stem(term string) string {
	n := len(term)
	if n >= 4 && term[n-1] == 's' && term[n-2] != 's' && term[n-2] != 'u' {
		return term[:n-1]
	}
	return term
}

// Count returns the number of occurrences of term (normalized exact match)
// in s.
func (t *Tokenizer) Count(s, term string) int {
	term = t.Normalize(term)
	n := 0
	for _, tk := range t.Tokenize(s) {
		if tk.Term == term {
			n++
		}
	}
	return n
}

// CountPhrase returns the number of occurrences of the multi-word phrase in
// s: the phrase terms must appear at consecutive word offsets, in order.
func (t *Tokenizer) CountPhrase(s string, phrase []string) int {
	if len(phrase) == 0 {
		return 0
	}
	lowered := make([]string, len(phrase))
	for i, p := range phrase {
		lowered[i] = t.Normalize(p)
	}
	toks := t.Tokenize(s)
	n := 0
	for i := 0; i+len(lowered) <= len(toks); i++ {
		ok := true
		for j := range lowered {
			if toks[i+j].Term != lowered[j] || toks[i+j].Offset != toks[i].Offset+uint32(j) {
				ok = false
				break
			}
		}
		if ok {
			n++
		}
	}
	return n
}

// SplitPhrase tokenizes a query phrase (e.g. "search engine") into its
// constituent lowercase terms, with stopwords removed per the tokenizer's
// configuration.
func (t *Tokenizer) SplitPhrase(phrase string) []string {
	return t.Terms(phrase)
}
