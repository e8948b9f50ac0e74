package server

import (
	"bytes"
	"net/http"

	"repro/internal/rescache"
)

// Reply caching (DESIGN.md §13). /terms, /phrase and /query read the
// backend's generation token after validating the request and before
// dispatching it, and look the encoded reply up under a key over the
// token, the effective request, the backend's limits and the server's
// MaxResults. A hit writes the stored bytes; a miss evaluates, renders
// and encodes, and stores a private copy of the bytes when neither the
// evaluation nor the encoder failed. A nil cache means the request
// bypasses caching: none is configured, or the backend has no stable
// token yet (bulk loading).

// termsKey returns the reply cache and the key of a /terms request whose
// topK is already clamped.
func (s *Server) termsKey(terms []string, topK int, complex bool) (*rescache.Cache, rescache.Key) {
	c := s.DB.ResultCache()
	if c == nil {
		return nil, rescache.Key{}
	}
	tok, ok := s.DB.TermsToken(terms)
	if !ok {
		return nil, rescache.Key{}
	}
	o := rescache.TermOpts{Complex: complex, TopK: topK, Limits: s.DB.Limits()}
	return c, rescache.TermKey(tok, terms, o).Capped(s.maxResults())
}

// phraseKey returns the reply cache and the key of a /phrase request.
func (s *Server) phraseKey(phrase []string) (*rescache.Cache, rescache.Key) {
	c := s.DB.ResultCache()
	if c == nil {
		return nil, rescache.Key{}
	}
	tok, ok := s.DB.TermsToken(phrase)
	if !ok {
		return nil, rescache.Key{}
	}
	return c, rescache.PhraseKey(tok, phrase, s.DB.Limits()).Capped(s.maxResults())
}

// queryKey returns the reply cache and the key of a /query request.
func (s *Server) queryKey(src string) (*rescache.Cache, rescache.Key) {
	c := s.DB.ResultCache()
	if c == nil {
		return nil, rescache.Key{}
	}
	tok, ok := s.DB.CacheToken()
	if !ok {
		return nil, rescache.Key{}
	}
	return c, rescache.QueryKey(tok, src, s.DB.Limits()).Capped(s.maxResults())
}

// serveCached answers a request from c and reports whether it did.
func serveCached(w http.ResponseWriter, c *rescache.Cache, key rescache.Key) bool {
	if c == nil {
		return false
	}
	v, ok := c.Get(key)
	if !ok {
		return false
	}
	writeReply(w, v.([]byte))
	return true
}

// storeReply caches a private copy of e's reply under key: the pooled
// buffer is reused by the next request. A reply the encoder failed on
// was never sent and is not stored.
func storeReply(c *rescache.Cache, key rescache.Key, e *replyEncoder) {
	if c == nil || e.err != nil {
		return
	}
	c.Put(key, bytes.Clone(e.b), int64(len(e.b)))
}
