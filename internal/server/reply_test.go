package server

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/bench"
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
		if got := appendString(nil, []byte(s)); !bytes.Equal(got, want) {
			t.Fatalf("appendString([]byte(%q)) = %s, encoding/json %s", s, got, want)
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

// replayBackend answers each kind of search with the answer its backend
// gave the first such request, and caches no reply: every request runs
// the server's whole reply path — Render and the encoder — while the
// search, whose own allocations grow with the hits it finds, runs once.
type replayBackend struct {
	Backend
	terms  []exec.ScoredNode
	phrase []exec.PhraseMatch
	query  []xq.Result
}

func (b *replayBackend) TermSearchContext(ctx context.Context, terms []string, opts db.TermSearchOptions) (rs []exec.ScoredNode, err error) {
	if b.terms == nil {
		b.terms, err = b.Backend.TermSearchContext(ctx, terms, opts)
	}
	return b.terms, err
}

func (b *replayBackend) PhraseSearchContext(ctx context.Context, phrase []string) (ms []exec.PhraseMatch, err error) {
	if b.phrase == nil {
		b.phrase, err = b.Backend.PhraseSearchContext(ctx, phrase)
	}
	return b.phrase, err
}

func (b *replayBackend) QueryContext(ctx context.Context, q string) (rs []xq.Result, err error) {
	if b.query == nil {
		b.query, err = b.Backend.QueryContext(ctx, q)
	}
	return b.query, err
}

func (*replayBackend) ResultCache() *rescache.Cache { return nil }

// TestReplyAllocsFlatInHits pins the reply path's per-result cost at zero
// allocations. Each request is computed, not served from a cached reply,
// over a replayBackend, so what is measured is the server's own work: a
// 100-hit /terms or /phrase reply, and a /query reply whose five results
// each carry a subtree of 200 elements, allocate at most two more times
// than a reply with one small result.
func TestReplyAllocsFlatInHits(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not representative under -race")
	}
	// 120 <p> elements hold "alpha beta" over three documents; "gamma
	// delta" occurs once. big.xml has five <sec> elements whose own text
	// holds "omega" and whose subtrees hold 200 <p> each; one.xml has one
	// small <sec>.
	p := strings.Repeat("<p>alpha beta &amp; more</p>", 40)
	sec := "<sec>omega" + strings.Repeat("<p>filler &lt;text&gt; caf\u00e9</p>", 200) + "</sec>"
	docs := []struct{ name, src string }{
		{"0.xml", "<r>" + p + "<q>gamma delta</q></r>"}, {"1.xml", "<r>" + p + "</r>"}, {"2.xml", "<r>" + p + "</r>"},
		{"big.xml", "<r>" + strings.Repeat(sec, 5) + "</r>"}, {"one.xml", "<r><sec>omega</sec></r>"},
	}
	query := func(doc string) string {
		b, _ := json.Marshal(QueryRequest{Query: `For $a in document("` + doc + `")//sec/descendant-or-self::* Score $a using ScoreFoo($a, {"omega"}, {}) Sortby(score)`})
		return string(b)
	}
	for _, shards := range []int{1, 3} {
		d := shard.New(shard.Options{Shards: shards, Metrics: metrics.NewRegistry()})
		for _, doc := range docs {
			if err := d.LoadString(doc.name, doc.src); err != nil {
				t.Fatal(err)
			}
		}
		allocs := func(path, body string, hits int) float64 {
			h := New(&replayBackend{Backend: d}).Handler()
			run := func() {
				w := &discardWriter{h: http.Header{}}
				r := httptest.NewRequest(http.MethodPost, path, strings.NewReader(body))
				h.ServeHTTP(w, r)
			}
			// Check the hit count once, which also records the search's
			// answer and warms the pooled reply scratch, then measure.
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, strings.NewReader(body)))
			var out struct{ Results []json.RawMessage }
			if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil || len(out.Results) != hits {
				t.Fatalf("%s %s: %d results (%v), want %d: %.200s", path, body, len(out.Results), err, hits, rec.Body.Bytes())
			}
			return testing.AllocsPerRun(50, run)
		}
		for _, c := range []struct {
			path, one, many string
			manyHits        int
		}{
			{"/terms", `{"terms":["alpha"],"topK":1}`, `{"terms":["alpha"],"topK":100}`, 100},
			{"/phrase", `{"phrase":["gamma","delta"]}`, `{"phrase":["alpha","beta"]}`, 100},
			{"/query", query("one.xml"), query("big.xml"), 5},
		} {
			one := allocs(c.path, c.one, 1)
			many := allocs(c.path, c.many, c.manyHits)
			if many > one+2 {
				t.Errorf("%d shards: %s allocates %.1f times for %d hits, %.1f for 1 hit", shards, c.path, many, c.manyHits, one)
			}
		}
	}
}

// BenchmarkQuery1 measures the paper's Query 1 (Score → Pick → Threshold
// stop after 5) over bench.Query1DB's 300-article document: "eval" is
// db.EvalQuery under a guard, as a /query request runs it, and "reply"
// encodes the five results into a reused encoder as the server writes
// them — each result's XML appended into the encoder's scratch by
// xmltree.AppendXML, then quoted by appendString.
func BenchmarkQuery1(b *testing.B) {
	d, err := bench.Query1DB()
	if err != nil {
		b.Fatal(err)
	}
	q, err := xq.Parse(bench.Query1Src)
	if err != nil {
		b.Fatal(err)
	}
	idx := d.Index()
	eval := func() []xq.Result {
		rs, err := db.EvalQuery(idx, q, exec.NewGuard(context.Background(), exec.Limits{}), nil)
		if err != nil {
			b.Fatal(err)
		}
		return rs
	}
	b.Run("eval", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			eval()
		}
	})
	results := eval()
	b.Run("reply", func(b *testing.B) {
		b.ReportAllocs()
		var e replyEncoder
		for i := 0; i < b.N; i++ {
			e.b = e.b[:0]
			e.queryReply(len(results), results)
		}
	})
}
