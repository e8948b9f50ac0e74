package main

import (
	"context"
	"encoding/json"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/db"
	"repro/internal/exec"
	"repro/internal/server"
	"repro/internal/storage"
	"repro/internal/xmltree"
	"repro/internal/xq"
)

// span is one timed call across a layer boundary. Spans are recorded
// from the benchmark's side of each boundary; with one client in flight
// they nest by time, so parents are assigned afterwards by containment
// instead of by threading an id through the program.
type span struct {
	Name   string `json:"name"`
	Req    int32  `json:"req"`    // request number the client set before sending
	Start  int64  `json:"start"`  // ns since the recorder started
	End    int64  `json:"end"`    // ns; envelope end for coalesced spans
	Calls  int32  `json:"calls"`  // >1 when back-to-back calls were coalesced
	Busy   int64  `json:"busy"`   // ns inside the call(s); End-Start when Calls == 1
	Parent int32  `json:"parent"` // index into the span list, -1 for a root
}

// recorder keeps spans in memory until the run ends. It is switched on
// only for the traced phase, so the same stack also serves the untraced
// phase trace.overhead_pct compares against.
type recorder struct {
	on  atomic.Bool
	req atomic.Int32
	t0  time.Time

	mu    sync.Mutex
	spans []span
	last  map[string]int // name -> index of its newest span, for coalescing
}

func newRecorder() *recorder {
	return &recorder{t0: time.Now(), last: map[string]int{}}
}

// add records one call. With coalesce set, a call that follows another of
// the same name within the same request extends that span: the server
// resolves a hundred result names per reply, and a span each would cost
// more memory than the calls cost time.
func (r *recorder) add(name string, start, end time.Time, coalesce bool) {
	s, e := int64(start.Sub(r.t0)), int64(end.Sub(r.t0))
	req := r.req.Load()
	r.mu.Lock()
	defer r.mu.Unlock()
	if coalesce {
		if i, ok := r.last[name]; ok && r.spans[i].Req == req {
			sp := &r.spans[i]
			sp.End, sp.Calls, sp.Busy = e, sp.Calls+1, sp.Busy+(e-s)
			return
		}
		r.last[name] = len(r.spans)
	}
	r.spans = append(r.spans, span{Name: name, Req: req, Start: s, End: e, Calls: 1, Busy: e - s, Parent: -1})
}

// tracedBackend is the timing decorator around a server.Backend (the
// fleet's Backend interface has the same methods, so one type serves
// both boundaries). The embedded interface forwards what is not timed.
type tracedBackend struct {
	server.Backend
	rec   *recorder
	layer string // "fleet" or "facade"
	// materialize is the span name of Materialize and NameOf, built once:
	// those run a hundred times per reply.
	materialize string
}

func traced(b server.Backend, rec *recorder, layer string) *tracedBackend {
	return &tracedBackend{Backend: b, rec: rec, layer: layer, materialize: layer + ".materialize"}
}

func (t *tracedBackend) QueryContext(ctx context.Context, src string) ([]xq.Result, error) {
	if !t.rec.on.Load() {
		return t.Backend.QueryContext(ctx, src)
	}
	start := time.Now()
	res, err := t.Backend.QueryContext(ctx, src)
	t.rec.add(t.layer+".query", start, time.Now(), false)
	return res, err
}

func (t *tracedBackend) TermSearchContext(ctx context.Context, terms []string, opts db.TermSearchOptions) ([]exec.ScoredNode, error) {
	if !t.rec.on.Load() {
		return t.Backend.TermSearchContext(ctx, terms, opts)
	}
	start := time.Now()
	res, err := t.Backend.TermSearchContext(ctx, terms, opts)
	t.rec.add(t.layer+".terms", start, time.Now(), false)
	return res, err
}

func (t *tracedBackend) PhraseSearchContext(ctx context.Context, phrase []string) ([]exec.PhraseMatch, error) {
	if !t.rec.on.Load() {
		return t.Backend.PhraseSearchContext(ctx, phrase)
	}
	start := time.Now()
	res, err := t.Backend.PhraseSearchContext(ctx, phrase)
	t.rec.add(t.layer+".phrase", start, time.Now(), false)
	return res, err
}

func (t *tracedBackend) Materialize(doc storage.DocID, ord int32) *xmltree.Node {
	if !t.rec.on.Load() {
		return t.Backend.Materialize(doc, ord)
	}
	start := time.Now()
	n := t.Backend.Materialize(doc, ord)
	t.rec.add(t.materialize, start, time.Now(), true)
	return n
}

func (t *tracedBackend) NameOf(n exec.ScoredNode) string {
	if !t.rec.on.Load() {
		return t.Backend.NameOf(n)
	}
	start := time.Now()
	name := t.Backend.NameOf(n)
	t.rec.add(t.materialize, start, time.Now(), true)
	return name
}

// The decorator forwards server.Ingestor so a traced wire-churn run
// still ingests; the type assertions hold for every backend the
// benchmark wraps (shard.DB and fleet.Fleet both ingest).

func (t *tracedBackend) ingest(op string, fn func(server.Ingestor) error) error {
	ing := t.Backend.(server.Ingestor)
	if !t.rec.on.Load() {
		return fn(ing)
	}
	start := time.Now()
	err := fn(ing)
	t.rec.add(t.layer+"."+op, start, time.Now(), false)
	return err
}

func (t *tracedBackend) Add(name, src string) error {
	return t.ingest("add", func(i server.Ingestor) error { return i.Add(name, src) })
}

func (t *tracedBackend) Update(name, src string) error {
	return t.ingest("update", func(i server.Ingestor) error { return i.Update(name, src) })
}

func (t *tracedBackend) Delete(name string) error {
	return t.ingest("delete", func(i server.Ingestor) error { return i.Delete(name) })
}

func (t *tracedBackend) Generation() uint64 { return t.Backend.(server.Ingestor).Generation() }

// tracedHandler times the whole handler tree: what is left of the
// client's round trip outside this span is transport and net/http, what
// is left inside it after the backend spans is the server's own work.
func tracedHandler(next http.Handler, rec *recorder) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !rec.on.Load() {
			next.ServeHTTP(w, r)
			return
		}
		start := time.Now()
		next.ServeHTTP(w, r)
		rec.add("server.handler", start, time.Now(), false)
	})
}

// assignParents links every span to the innermost span of the same
// request that was open when it started. A fleet attempt that loses the
// race may end after its parent; it still started inside it. Facade spans
// are leaves: a hedge that starts while the primary attempt is running is
// its sibling, not its child.
func assignParents(spans []span) {
	order := make([]int, len(spans))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		x, y := &spans[order[a]], &spans[order[b]]
		if x.Req != y.Req {
			return x.Req < y.Req
		}
		if x.Start != y.Start {
			return x.Start < y.Start
		}
		return x.End > y.End
	})
	var stack []int
	for _, i := range order {
		s := &spans[i]
		for len(stack) > 0 {
			top := &spans[stack[len(stack)-1]]
			if top.Req == s.Req && s.Start >= top.Start && s.Start <= top.End {
				break
			}
			stack = stack[:len(stack)-1]
		}
		s.Parent = -1
		if len(stack) > 0 {
			s.Parent = int32(stack[len(stack)-1])
		}
		if !strings.HasPrefix(s.Name, "facade.") {
			stack = append(stack, i)
		}
	}
}

// selfTimes returns each span's busy time minus the part of it its
// children cover. Single-call children are intervals and may overlap (a
// hedge racing the primary), so they count once by union; coalesced
// children ran back to back and count by their busy time.
func selfTimes(spans []span) []int64 {
	type iv struct{ lo, hi int64 }
	kids := make([][]iv, len(spans))
	coalesced := make([]int64, len(spans))
	for _, s := range spans {
		if s.Parent < 0 {
			continue
		}
		p := &spans[s.Parent]
		if s.Calls > 1 || p.Calls > 1 {
			coalesced[s.Parent] += s.Busy
			continue
		}
		lo, hi := s.Start, s.End
		if hi > p.End {
			hi = p.End
		}
		if hi > lo {
			kids[s.Parent] = append(kids[s.Parent], iv{lo, hi})
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		ivs := kids[i]
		sort.Slice(ivs, func(a, b int) bool { return ivs[a].lo < ivs[b].lo })
		covered, edge := coalesced[i], int64(-1<<62)
		for _, v := range ivs {
			if v.lo > edge {
				covered += v.hi - v.lo
				edge = v.hi
			} else if v.hi > edge {
				covered += v.hi - edge
				edge = v.hi
			}
		}
		if self[i] = s.Busy - covered; self[i] < 0 {
			self[i] = 0
		}
	}
	return self
}

// writeTrace dumps the spans for reading by hand or by a script.
func writeTrace(path string, workloadName string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	err = enc.Encode(struct {
		Workload string `json:"workload"`
		Unit     string `json:"unit"`
		Spans    []span `json:"spans"`
	}{workloadName, "ns", spans})
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
