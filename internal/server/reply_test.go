package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/db"
	"repro/internal/exec"
	"repro/internal/metrics"
	"repro/internal/rescache"
	"repro/internal/shard"
	"repro/internal/xmltree"
	"repro/internal/xq"
)

// referenceReply is a result reply as encoding/json writes it: what the
// server sent before the append encoder, and what it must still send.
func referenceReply(count int, results interface{}) ([]byte, error) {
	var b bytes.Buffer
	err := json.NewEncoder(&b).Encode(map[string]interface{}{"count": count, "results": results})
	return b.Bytes(), err
}

func checkReply(t *testing.T, shape string, got replyEncoder, want []byte, wantErr error) {
	t.Helper()
	if (got.err != nil) != (wantErr != nil) {
		t.Fatalf("%s: encoder error %v, encoding/json error %v", shape, got.err, wantErr)
	}
	if wantErr == nil && !bytes.Equal(got.b, want) {
		t.Fatalf("%s reply:\n got %q\nwant %q", shape, got.b, want)
	}
}

// FuzzReplyEncoding checks the append encoder against encoding/json on
// arbitrary strings and float64 bit patterns: each value alone, and inside
// each of the three reply shapes.
func FuzzReplyEncoding(f *testing.F) {
	for _, s := range []string{"", "plain", `<a href="x">&amp;</a>`, `back\slash`,
		"\b\f\n\r\t\x00\x1f\x7f", "caf\u00e9 \u65e5\u672c", "\u2028\u2029", "\xff\xfe", "a\xc3",
		"\xed\xa0\x80", "\U0001d11e", "\ufffd"} {
		f.Add(s, math.Float64bits(1.5))
	}
	for _, x := range []float64{0, math.Copysign(0, -1), 1, 0.1, 3.6000000000000005, 1e-6, 9.999999e-7,
		1e-7, 1e20, 1e21, 9.999999999999999e20, 1e300, -1e-300, 5e-324, math.MaxFloat64,
		math.NaN(), math.Inf(1), math.Inf(-1)} {
		f.Add("p", math.Float64bits(x))
	}
	f.Fuzz(func(t *testing.T, s string, bits uint64) {
		x := math.Float64frombits(bits)
		want, _ := json.Marshal(s)
		if got := appendString(nil, s); !bytes.Equal(got, want) {
			t.Fatalf("appendString(%q) = %s, encoding/json %s", s, got, want)
		}
		want, err := json.Marshal(x)
		got, ok := appendFloat(nil, x)
		if ok != (err == nil) || ok && !bytes.Equal(got, want) {
			t.Fatalf("appendFloat(%v) = %s, %v; encoding/json %s, %v", x, got, ok, want, err)
		}

		var e replyEncoder
		e.termsReply([]exec.ScoredNode{{Doc: 3, Ord: 7, Score: x}, {Doc: 4, Score: -x}}, []string{s, "p"})
		want, err = referenceReply(2, []TermResult{{Tag: s, Doc: 3, Ord: 7, Score: x}, {Tag: "p", Doc: 4, Score: -x}})
		checkReply(t, "terms", e, want, err)

		e = replyEncoder{}
		e.phraseReply(9, []exec.PhraseMatch{{Doc: 1, Node: 2, Pos: uint32(bits)}}, []string{s})
		want, err = referenceReply(9, []PhraseResult{{Doc: 1, Node: 2, Pos: uint32(bits), Text: s}})
		checkReply(t, "phrase", e, want, err)

		node := xmltree.NewElement(s)
		node.AppendChild(xmltree.NewText(s))
		e = replyEncoder{}
		e.queryReply(1, []xq.Result{{Node: node, Score: x, Sim: -x}})
		want, err = referenceReply(1, []QueryResult{{Tag: s, Score: x, Sim: -x, XML: xmltree.XMLString(node)}})
		checkReply(t, "query", e, want, err)
	})
}

// nonFiniteBackend answers every search with a non-finite score, which
// JSON cannot carry.
type nonFiniteBackend struct {
	Backend // nil: only the methods below are called
}

func (nonFiniteBackend) TermSearchContext(context.Context, []string, db.TermSearchOptions) ([]exec.ScoredNode, error) {
	return []exec.ScoredNode{{Score: 1}, {Score: math.NaN()}}, nil
}

func (nonFiniteBackend) QueryContext(context.Context, string) ([]xq.Result, error) {
	return []xq.Result{{Node: xmltree.NewElement("p"), Score: math.Inf(-1)}}, nil
}

// ResultCache turns reply caching off, so no other cache method is called.
func (nonFiniteBackend) ResultCache() *rescache.Cache { return nil }

func (nonFiniteBackend) Render(dst []string, nodes []exec.ScoredNode) []string {
	for range nodes {
		dst = append(dst, "p")
	}
	return dst
}

// TestNonFiniteScoreIsInternalError: a score JSON cannot carry answers a
// typed 500, not a 200 with an empty body.
func TestNonFiniteScoreIsInternalError(t *testing.T) {
	s := New(nonFiniteBackend{})
	s.Metrics = metrics.NewRegistry()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	for path, body := range map[string]string{
		"/terms": `{"terms":["p"]}`,
		"/query": `{"query":"q"}`,
	} {
		resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		e := decodeError(t, resp, http.StatusInternalServerError, "internal")
		resp.Body.Close()
		if !strings.Contains(e.Error, "unsupported value") {
			t.Errorf("%s: error %q does not name the unsupported value", path, e.Error)
		}
	}
}

// discardWriter is a ResponseWriter that keeps nothing, so measuring a
// handler's allocations does not count a recorder's growing buffer.
type discardWriter struct{ h http.Header }

func (w *discardWriter) Header() http.Header         { return w.h }
func (w *discardWriter) Write(b []byte) (int, error) { return len(b), nil }
func (w *discardWriter) WriteHeader(int)             {}

// raceEnabled is set in race builds, where sync.Pool drops items at
// random and allocation counts mean nothing.
var raceEnabled bool

// TestReplyAllocsFlatInHits pins the reply path's per-hit cost at zero
// allocations: over a cached backend, a 100-hit /terms or /phrase reply
// allocates at most two more times than a 1-hit reply.
func TestReplyAllocsFlatInHits(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not representative under -race")
	}
	// 120 <p> elements hold "alpha beta" over three documents; "gamma
	// delta" occurs once.
	p := strings.Repeat("<p>alpha beta &amp; more</p>", 40)
	docs := []string{"<r>" + p + "<q>gamma delta</q></r>", "<r>" + p + "</r>", "<r>" + p + "</r>"}
	for _, shards := range []int{1, 3} {
		d := shard.New(shard.Options{Shards: shards, CacheBytes: 1 << 20, Metrics: metrics.NewRegistry()})
		for i, doc := range docs {
			if err := d.LoadString(fmt.Sprintf("%d.xml", i), doc); err != nil {
				t.Fatal(err)
			}
		}
		s := New(d)
		h := s.Handler()
		allocs := func(path, body string, hits int) float64 {
			run := func() {
				w := &discardWriter{h: http.Header{}}
				r := httptest.NewRequest(http.MethodPost, path, strings.NewReader(body))
				h.ServeHTTP(w, r)
			}
			// Check the hit count once, then measure with the reply cached.
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, strings.NewReader(body)))
			var out struct{ Results []json.RawMessage }
			if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil || len(out.Results) != hits {
				t.Fatalf("%s %s: %d results (%v), want %d: %s", path, body, len(out.Results), err, hits, rec.Body.Bytes())
			}
			return testing.AllocsPerRun(50, run)
		}
		for _, c := range []struct{ path, one, many string }{
			{"/terms", `{"terms":["alpha"],"topK":1}`, `{"terms":["alpha"],"topK":100}`},
			{"/phrase", `{"phrase":["gamma","delta"]}`, `{"phrase":["alpha","beta"]}`},
		} {
			one := allocs(c.path, c.one, 1)
			many := allocs(c.path, c.many, 100)
			if many > one+2 {
				t.Errorf("%d shards: %s allocates %.1f times for 100 hits, %.1f for 1 hit", shards, c.path, many, one)
			}
		}
	}
}
