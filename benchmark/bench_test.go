package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"
)

func TestZipfSamplerIsSeededAndSkewed(t *testing.T) {
	z := newZipf(512, 1.0)
	draw := func(seed int64) []int {
		rng := rand.New(rand.NewSource(seed))
		out := make([]int, 20000)
		for i := range out {
			out[i] = z.rank(rng)
		}
		return out
	}
	a, b := draw(7), draw(7)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed drew different ranks")
	}
	counts := make([]int, 512)
	for _, r := range a {
		counts[r]++
	}
	// With s = 1 rank 0 is drawn twice as often as rank 1 and about
	// 1/H(512) = 14.6% of the time.
	if share := float64(counts[0]) / float64(len(a)); math.Abs(share-0.146) > 0.02 {
		t.Errorf("rank 0 drawn %.3f of the time, want about 0.146", share)
	}
	if counts[0] < counts[1] || counts[1] < counts[5] {
		t.Errorf("ranks not skewed: %v", counts[:6])
	}
}

func TestPlansArePureFunctionOfSeed(t *testing.T) {
	for _, w := range workloads {
		if w.inProcess {
			continue
		}
		w.docs = 500
		a, b, c := buildPlans(w, 3, 2, 0.05), buildPlans(w, 3, 2, 0.05), buildPlans(w, 4, 2, 0.05)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: same seed built different plans", w.name)
		}
		if reflect.DeepEqual(a, c) {
			t.Errorf("%s: different seeds built the same plan", w.name)
		}
		if reflect.DeepEqual(a[0].seq, a[1].seq) {
			t.Errorf("%s: both clients send the same sequence", w.name)
		}
		for i := range a[0].seq {
			r := a[0].at(i)
			if !bytes.HasSuffix(r.raw, []byte("}")) && r.route != rDelete {
				t.Fatalf("%s: request %d is not a complete pre-encoded request: %q", w.name, i, r.raw)
			}
		}
	}
}

func TestChurnPlanWritesOnlyToItsOwnLiveDocuments(t *testing.T) {
	reads := hotRequests(plantedFor(500))
	pl := churnPlan(reads, newZipf(len(reads), 1), 0, 5000, rand.New(rand.NewSource(2)))
	live := map[string]bool{}
	var writes int
	for i := range pl.seq {
		r := pl.at(i)
		switch r.route {
		case rAdd:
			if live[r.doc] {
				t.Fatalf("op %d adds %s twice", i, r.doc)
			}
			live[r.doc] = true
		case rUpdate, rDelete:
			if !live[r.doc] {
				t.Fatalf("op %d %ss %s, which is not live", i, r.route, r.doc)
			}
			if r.route == rDelete {
				delete(live, r.doc)
			}
		default:
			continue
		}
		writes++
	}
	if share := float64(writes) / float64(len(pl.seq)); math.Abs(share-0.10) > 0.02 {
		t.Errorf("write share %.3f, want about 0.10", share)
	}
}

func TestPercentileMedianAndWindows(t *testing.T) {
	sorted := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.5, 5}, {0.75, 7}, {0.99, 9}, {1, 10}} {
		if got := percentile(sorted, c.q); got != c.want {
			t.Errorf("percentile(%g) = %g, want %g", c.q, got, c.want)
		}
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of four = %g, want 2.5", got)
	}
	if got := median([]float64{9, 1, 5}); got != 5 {
		t.Errorf("median of three = %g, want 5", got)
	}

	// Ten 1-second windows. Window w holds w+1 samples of w+1 ms, except
	// window 9, which also holds one 500 ms stall; one sample ends after
	// the phase and belongs to no window.
	var samples []sample
	for w := 0; w < 10; w++ {
		for k := 0; k <= w; k++ {
			samples = append(samples, sample{end: int64(w)*1e9 + int64(k+1)*1e6, lat: int64(w+1) * 1e6})
		}
	}
	samples = append(samples, sample{end: 9.5e9, lat: 500e6}, sample{end: 10.2e9, lat: 900e6})
	counts, tails := windowed(samples, 10*time.Second, 0.99)
	if want := []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 11}; !reflect.DeepEqual(counts, want) {
		t.Errorf("window counts %v, want %v", counts, want)
	}
	if tails[3] != 4 || tails[9] != 10 {
		t.Errorf("window tails %v: want 4 in window 3 and 10 in window 9 (p99 of 11 samples is the 10th)", tails)
	}
	thr, p50, tail := wireSummary(samples, 10*time.Second, 0.99)
	// Median window rate is (5+6)/2 per second; the stall moves neither
	// that nor the median of the window tails, (5+6)/2 ms.
	if thr != 5.5 || tail != 5.5 {
		t.Errorf("throughput %g tail %g, want 5.5 and 5.5", thr, tail)
	}
	if p50 != 8 {
		t.Errorf("p50 %g, want 8 (the 29th of 57 latencies)", p50)
	}
}

func TestSpanParentsAndSelfTime(t *testing.T) {
	spans := []span{
		{Name: "client.terms", Req: 0, Start: 0, End: 100, Calls: 1, Busy: 100},
		{Name: "server.handler", Req: 0, Start: 10, End: 90, Calls: 1, Busy: 80},
		{Name: "fleet.terms", Req: 0, Start: 20, End: 60, Calls: 1, Busy: 40},
		// A primary and a hedge overlap on [35,50]; the hedge loses and
		// ends after the fleet call has returned.
		{Name: "facade.terms", Req: 0, Start: 25, End: 50, Calls: 1, Busy: 25},
		{Name: "facade.terms", Req: 0, Start: 35, End: 70, Calls: 1, Busy: 35},
		// A hundred name lookups of 0.1 each, coalesced, with the replica
		// side of them nested inside.
		{Name: "fleet.materialize", Req: 0, Start: 61, End: 85, Calls: 100, Busy: 10},
		{Name: "facade.materialize", Req: 0, Start: 62, End: 84, Calls: 100, Busy: 4},
		// The next request reuses the same clock range shape.
		{Name: "client.topk", Req: 1, Start: 200, End: 230, Calls: 1, Busy: 30},
		{Name: "server.handler", Req: 1, Start: 205, End: 225, Calls: 1, Busy: 20},
	}
	assignParents(spans)
	wantParents := []int32{-1, 0, 1, 2, 2, 1, 5, -1, 7}
	for i, s := range spans {
		if s.Parent != wantParents[i] {
			t.Errorf("span %d (%s): parent %d, want %d", i, s.Name, s.Parent, wantParents[i])
		}
	}
	self := selfTimes(spans)
	// client: 100-80. handler: 80 - fleet.terms 40 - coalesced 10.
	// fleet.terms: 40 - union([25,50],[35,60 clipped]) = 40-35.
	// fleet.materialize: 10-4.
	want := []int64{20, 30, 5, 25, 35, 6, 4, 10, 20}
	if !reflect.DeepEqual(self, want) {
		t.Errorf("self times %v, want %v", self, want)
	}
	sum := analyze(spans)
	if sum.requests != 2 || sum.selfNs["fleet"] != 11 || sum.selfNs["materialize"] != 4 || sum.selfNs["facade"] != 60 {
		t.Errorf("summary %+v", sum)
	}
	if sum.attemptsPerReq != 2 {
		t.Errorf("attempts per request %g, want 2 (primary and hedge)", sum.attemptsPerReq)
	}
}

func TestRecorderCoalescesOnlyWithinARequest(t *testing.T) {
	r := newRecorder()
	at := func(ns int64) time.Time { return r.t0.Add(time.Duration(ns)) }
	r.add("facade.materialize", at(10), at(12), true)
	r.add("facade.materialize", at(20), at(23), true)
	r.req.Store(1)
	r.add("facade.materialize", at(40), at(41), true)
	r.add("facade.terms", at(50), at(60), false)
	r.add("facade.terms", at(70), at(80), false)
	want := []span{
		{Name: "facade.materialize", Req: 0, Start: 10, End: 23, Calls: 2, Busy: 5, Parent: -1},
		{Name: "facade.materialize", Req: 1, Start: 40, End: 41, Calls: 1, Busy: 1, Parent: -1},
		{Name: "facade.terms", Req: 1, Start: 50, End: 60, Calls: 1, Busy: 10, Parent: -1},
		{Name: "facade.terms", Req: 1, Start: 70, End: 80, Calls: 1, Busy: 10, Parent: -1},
	}
	if !reflect.DeepEqual(r.spans, want) {
		t.Errorf("spans %+v\nwant  %+v", r.spans, want)
	}
}

func TestResultLineGolden(t *testing.T) {
	res := result{Correct: true, Attempted: 1000, Failed: 0, Metrics: map[string]metric{
		"p50_ms":  {1.2034, "ms"},
		"setup_s": {0.8127, "s"},
	}}
	got, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	const want = `{"correct":true,"attempted":1000,"failed":0,"metrics":{"p50_ms":{"value":1.2034,"unit":"ms"},"setup_s":{"value":0.8127,"unit":"s"}}}`
	if string(got) != want {
		t.Errorf("result line\n got %s\nwant %s", got, want)
	}
}

// TestBenchmarkJSONMatchesCatalog keeps the driver's contract file and
// the program's own declarations equal.
func TestBenchmarkJSONMatchesCatalog(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Skip("no BENCHMARK.json beside this directory:", err)
	}
	type decl struct {
		Name, Unit, Better, Why string
		Bound                   float64
	}
	var doc struct {
		Command    []string
		Paths      []string
		RunSeconds int `json:"run_seconds"`
		Workloads  []decl
		EndToEnd   []decl `json:"end_to_end"`
		PerLayer   []decl `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.RunSeconds != runSeconds {
		t.Errorf("run_seconds %d, program default %d", doc.RunSeconds, runSeconds)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads declared, %d implemented", len(doc.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if doc.Workloads[i].Name != w.name || doc.Workloads[i].Why != w.why {
			t.Errorf("workload %d: declared %q, implemented %q", i, doc.Workloads[i].Name, w.name)
		}
		if len(w.why) > 200 {
			t.Errorf("workload %s: why is %d characters", w.name, len(w.why))
		}
	}
	check := func(kind string, declared []decl, have []metricDecl) {
		if len(declared) != len(have) {
			t.Fatalf("%s: %d declared, %d implemented", kind, len(declared), len(have))
		}
		for i, d := range have {
			got := declared[i]
			if got.Name != d.name || got.Unit != d.unit || got.Better != d.better || got.Bound != d.bound {
				t.Errorf("%s %d: declared %+v, implemented %+v", kind, i, got, d)
			}
		}
	}
	check("end_to_end", doc.EndToEnd, endToEnd)
	check("per_layer", doc.PerLayer, perLayer)
}

// TestSmoke runs every workload for half a second on a 500-document
// corpus, untraced and traced: every route, both decorators, the replay
// and the write verification execute, and every declared metric appears.
func TestSmoke(t *testing.T) {
	for _, w := range workloads {
		w := w
		w.docs = 500
		if w.articles > 0 {
			w.articles = 8
		}
		t.Run(w.name, func(t *testing.T) {
			cfg := runConfig{seed: 5, seconds: 0.5, warmup: 0.2, setupReps: 1, outDir: t.TempDir(), log: io.Discard}
			for _, traced := range []bool{false, true} {
				res, err := runOne(w, cfg, traced)
				if err != nil {
					t.Fatalf("traced=%v: %v", traced, err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Errorf("traced=%v: correct=%v attempted=%d failed=%d", traced, res.Correct, res.Attempted, res.Failed)
				}
				want := decls(traced)
				if len(res.Metrics) != len(want) {
					t.Errorf("traced=%v: %d metrics, want %d", traced, len(res.Metrics), len(want))
				}
				for _, d := range want {
					m, ok := res.Metrics[d.name]
					if !ok || m.Unit != d.unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
						t.Errorf("traced=%v: metric %s = %+v (present %v)", traced, d.name, m, ok)
					}
					if !traced && m.Value <= 0 {
						t.Errorf("end-to-end metric %s = %g, must be positive", d.name, m.Value)
					}
				}
				if traced && !w.inProcess {
					if res.Metrics["client.self_us"].Value <= 0 || res.Metrics["server.self_us"].Value <= 0 {
						t.Errorf("traced run attributed nothing to client or server: %+v", res.Metrics)
					}
					if _, err := os.Stat(filepath.Join(cfg.outDir, "trace-"+w.name+".json")); err != nil {
						t.Errorf("no trace file: %v", err)
					}
				}
			}
		})
	}
}
