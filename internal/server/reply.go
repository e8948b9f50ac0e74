package server

import (
	"fmt"
	"math"
	"net/http"
	"strconv"
	"sync"
	"unicode/utf8"

	"repro/internal/exec"
	"repro/internal/xmltree"
	"repro/internal/xq"
)

// The result replies (/terms, /phrase, /query) have fixed shapes, so they
// are appended by hand into one pooled buffer rather than encoded through
// reflection. The bytes are exactly what json.Encoder.Encode writes for
// the same reply: the reply goldens and FuzzReplyEncoding hold the two
// together.

// replyScratch is one request's reusable reply state.
type replyScratch struct {
	enc    replyEncoder
	labels []string          // Render's answers, one per result
	nodes  []exec.ScoredNode // /phrase matches as Render's nodes
}

var replyPool = sync.Pool{New: func() any { return new(replyScratch) }}

// maxPooledReply is the largest buffer returned to the pool, so one huge
// /query reply is not kept alive for every later small one.
const maxPooledReply = 1 << 20

func getReply() *replyScratch {
	sc := replyPool.Get().(*replyScratch)
	sc.enc.b, sc.enc.err = sc.enc.b[:0], nil
	return sc
}

func putReply(sc *replyScratch) {
	if cap(sc.enc.b) > maxPooledReply {
		return
	}
	clear(sc.labels) // do not pin the store's strings from the pool
	sc.labels = sc.labels[:0]
	sc.nodes = sc.nodes[:0]
	replyPool.Put(sc)
}

// replyEncoder appends JSON as encoding/json writes it, with HTML escaping
// on. Like json.Encoder it cannot carry NaN or ±Inf: the first such value
// is kept in err and the reply must not be sent.
type replyEncoder struct {
	b   []byte
	err error
}

func (e *replyEncoder) raw(s string)  { e.b = append(e.b, s...) }
func (e *replyEncoder) str(s string)  { e.b = appendString(e.b, s) }
func (e *replyEncoder) int(v int64)   { e.b = strconv.AppendInt(e.b, v, 10) }
func (e *replyEncoder) uint(v uint64) { e.b = strconv.AppendUint(e.b, v, 10) }

func (e *replyEncoder) float(f float64) {
	var ok bool
	if e.b, ok = appendFloat(e.b, f); !ok && e.err == nil {
		e.err = fmt.Errorf("json: unsupported value: %s", strconv.FormatFloat(f, 'g', -1, 64))
	}
}

// termsReply appends the /terms reply, tags[i] being results[i]'s tag:
// what json.Encoder writes for {"count": len(results), "results":
// []TermResult}.
func (e *replyEncoder) termsReply(results []exec.ScoredNode, tags []string) {
	e.raw(`{"count":`)
	e.int(int64(len(results)))
	e.raw(`,"results":[`)
	for i, n := range results {
		if i > 0 {
			e.raw(",")
		}
		e.raw(`{"tag":`)
		e.str(tags[i])
		e.raw(`,"doc":`)
		e.int(int64(n.Doc))
		e.raw(`,"ord":`)
		e.int(int64(n.Ord))
		e.raw(`,"score":`)
		e.float(n.Score)
		e.raw("}")
	}
	e.raw("]}\n")
}

// phraseReply appends the /phrase reply for count matches of which ms are
// returned, texts[i] being ms[i]'s text: what json.Encoder writes for
// {"count": count, "results": []PhraseResult}.
func (e *replyEncoder) phraseReply(count int, ms []exec.PhraseMatch, texts []string) {
	e.raw(`{"count":`)
	e.int(int64(count))
	e.raw(`,"results":[`)
	for i, m := range ms {
		if i > 0 {
			e.raw(",")
		}
		e.raw(`{"doc":`)
		e.int(int64(m.Doc))
		e.raw(`,"node":`)
		e.int(int64(m.Node))
		e.raw(`,"pos":`)
		e.uint(uint64(m.Pos))
		e.raw(`,"text":`)
		e.str(texts[i])
		e.raw("}")
	}
	e.raw("]}\n")
}

// queryReply appends the /query reply for count results of which results
// are returned: what json.Encoder writes for {"count": count, "results":
// []QueryResult}.
func (e *replyEncoder) queryReply(count int, results []xq.Result) {
	e.raw(`{"count":`)
	e.int(int64(count))
	e.raw(`,"results":[`)
	for i, res := range results {
		if i > 0 {
			e.raw(",")
		}
		e.raw(`{"tag":`)
		e.str(res.Node.Tag)
		e.raw(`,"score":`)
		e.float(res.Score)
		if res.Sim != 0 { // omitempty
			e.raw(`,"sim":`)
			e.float(res.Sim)
		}
		e.raw(`,"xml":`)
		e.str(xmltree.XMLString(res.Node))
		e.raw("}")
	}
	e.raw("]}\n")
}

// send writes the reply with its Content-Length, or a 500 with code
// "internal" when a value could not be encoded.
func (e *replyEncoder) send(w http.ResponseWriter) {
	if e.err != nil {
		errorJSON(w, http.StatusInternalServerError, e.err)
		return
	}
	writeReply(w, e.b)
}

// writeReply writes an encoded reply with its Content-Length: the one
// path a computed and a cached reply leave by, so their headers agree.
func writeReply(w http.ResponseWriter, b []byte) {
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(len(b)))
	// A failed write means the client is gone; there is no one left to
	// answer.
	_, _ = w.Write(b)
}

// appendFloat appends f as encoding/json writes a float64: the shortest
// representation, in 'f' format except below 1e-6 and from 1e21 up, where
// it is 'e' format with a two-digit negative exponent shortened ("e-07"
// becomes "e-7"). A non-finite f appends nothing and reports false.
func appendFloat(b []byte, f float64) ([]byte, bool) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return b, false
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b, true
}

const hexDigits = "0123456789abcdef"

// appendString appends s quoted as encoding/json writes a string with
// HTML escaping: the quote, the backslash and the control characters
// escaped (\b \f \n \r \t by name, the rest as \u00XX), <, > and & as
// \u003c, \u003e and \u0026, the separators U+2028 and U+2029 as \u2028
// and \u2029, and each byte of invalid UTF-8 as \ufffd.
func appendString(b []byte, s string) []byte {
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		c := s[i]
		if c < utf8.RuneSelf {
			if c >= 0x20 && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '"', '\\':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}
