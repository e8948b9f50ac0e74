package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"

	"repro/internal/server"
)

// route names one kind of operation; reads are digest-checked, writes are
// verified after the run.
type route uint8

const (
	rTerms route = iota
	rTopK
	rPhrase
	rQuery
	rAdd
	rUpdate
	rDelete
	numRoutes
)

var routeNames = [numRoutes]string{"terms", "topk", "phrase", "query", "add", "update", "delete"}

func (r route) String() string { return routeNames[r] }
func (r route) isWrite() bool  { return r >= rAdd }

// request is one pre-encoded operation: raw is the complete HTTP/1.1
// request as it goes on the socket, the other fields are what replay
// needs to re-issue it below the wire.
type request struct {
	route   route
	raw     []byte
	terms   []string // rTerms, rTopK, rPhrase
	topK    int
	complex bool
	query   string // rQuery
	// minCount..maxCount is the planted invariant on the response's
	// "count" field (maxCount 0 = not checked).
	minCount, maxCount int
	// doc and token identify a write's target and the unique token its
	// body carries (empty for deletes).
	doc, token string
}

func rawRequest(method, path string, body []byte) []byte {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s %s HTTP/1.1\r\nHost: tix\r\n", method, path)
	if body != nil {
		fmt.Fprintf(&sb, "Content-Type: application/json\r\nContent-Length: %d\r\n", len(body))
	}
	sb.WriteString("\r\n")
	return append([]byte(sb.String()), body...)
}

var healthzRequest = rawRequest("GET", "/healthz", nil)

func mustJSON(v interface{}) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // request structs of strings and ints always marshal
	}
	return b
}

// maxResults mirrors the server's default per-request result cap.
const maxResults = 100

func termsRequest(terms []string, topK int, complex bool) request {
	r := request{route: rTerms, terms: terms, topK: topK, complex: complex, minCount: 1, maxCount: maxResults}
	if topK > 0 {
		r.route, r.maxCount = rTopK, topK
	}
	r.raw = rawRequest("POST", "/terms", mustJSON(server.TermsRequest{Terms: terms, TopK: topK, Complex: complex}))
	return r
}

func phraseRequest(phrase []string, minCount, maxCount int) request {
	return request{
		route: rPhrase, terms: phrase, minCount: minCount, maxCount: maxCount,
		raw: rawRequest("POST", "/phrase", mustJSON(server.PhraseRequest{Phrase: phrase})),
	}
}

func queryRequest(src string, minCount, maxCount int) request {
	return request{
		route: rQuery, query: src, minCount: minCount, maxCount: maxCount,
		raw: rawRequest("POST", "/query", mustJSON(server.QueryRequest{Query: src})),
	}
}

// zipf is an inverse-CDF sampler over ranks 0..n-1 with weight
// 1/(rank+1)^s; unlike math/rand's Zipf it accepts s = 1.0. (Copied from
// cmd/tixload, which is package main and cannot be imported.)
type zipf struct{ cum []float64 }

func newZipf(n int, s float64) *zipf {
	cum := make([]float64, n)
	total := 0.0
	for i := 0; i < n; i++ {
		total += 1 / math.Pow(float64(i+1), s)
		cum[i] = total
	}
	for i := range cum {
		cum[i] /= total
	}
	return &zipf{cum: cum}
}

func (z *zipf) rank(r *rand.Rand) int { return sort.SearchFloat64s(z.cum, r.Float64()) }

const hotPopulation = 512

// hotFamilies assigns request families to population ranks in a fixed
// cycle of ten: terms 50%, complex top-k 30%, phrase 20% of the
// population, interleaved so the zipf head spans all three.
var hotFamilies = [10]route{rTerms, rTopK, rTerms, rPhrase, rTerms, rTopK, rTerms, rTopK, rTerms, rPhrase}

// hotRequests is the cached population: 512 distinct reads over the
// planted control terms and the 40 hottest background words, the
// vocabulary tixload draws from. The population is the workload's
// identity, so it does not depend on the run's seed (the corpus and the
// order of requests do): otherwise one seed would put a cheap request at
// rank 0, which takes a seventh of all traffic, and the next a costly
// one, and runs of different seeds could not be compared.
func hotRequests(p planted) []request {
	rng := rand.New(rand.NewSource(1))
	control := []string{"ctla", "ctlb", "ctlc"}
	word := func() string {
		if rng.Intn(2) == 0 {
			return control[rng.Intn(len(control))]
		}
		return fmt.Sprintf("w%06d", 1+rng.Intn(40))
	}
	pop := make([]request, hotPopulation)
	for i := range pop {
		switch hotFamilies[i%len(hotFamilies)] {
		case rTerms:
			terms := []string{word()}
			if rng.Intn(2) == 0 {
				terms = append(terms, word())
			}
			pop[i] = termsRequest(terms, 0, false)
		case rTopK:
			pop[i] = termsRequest([]string{word(), word()}, 5+rng.Intn(20), true)
		default:
			if rng.Intn(4) == 0 {
				// A random pair is adjacent only by chance: no count bound.
				pop[i] = phraseRequest([]string{word(), word()}, 0, 0)
			} else {
				pop[i] = phraseRequest([]string{"ctla", "ctlb"}, p.together("ctla"), p.freq["ctlb"])
			}
		}
	}
	return pop
}

// query1 is the paper's Query 1 shape (Score + Pick + Threshold … stop
// after 5) over the planted phrase and secondary term of articles.xml.
const query1 = `For $a in document("articles.xml")//article/descendant-or-self::*
Score $a using ScoreFoo($a, {"xqa xqb"}, {"xqc"})
Pick $a using PickFoo($a)
Sortby(score)
Threshold $a/@score > 1 stop after 5`

// coldRequests is the uncached population with its draw weights in
// percent: sparse TermJoin 35, sparse complex top-10 25, dense top-10 5,
// rare+common phrase 20, Query 1 through xq 15.
func coldRequests(p planted) ([]request, []int) {
	sparse := []string{"sparsea", "sparseb"}
	return []request{
		termsRequest(sparse, 0, false),
		termsRequest(sparse, 10, true),
		termsRequest([]string{"densea", "denseb"}, 10, false),
		phraseRequest([]string{"rare", "common"}, p.together("rare"), p.freq["rare"]),
		queryRequest(query1, 1, 5),
	}, []int{35, 25, 5, 20, 15}
}

// weightedDraw returns n indices drawn with the given integer weights.
func weightedDraw(weights []int, n int, rng *rand.Rand) []int32 {
	total := 0
	for _, w := range weights {
		total += w
	}
	seq := make([]int32, n)
	for i := range seq {
		x := rng.Intn(total)
		for j, w := range weights {
			if x < w {
				seq[i] = int32(j)
				break
			}
			x -= w
		}
	}
	return seq
}

// plan is everything one client sends, fixed before timing starts: seq
// indexes reads (>= 0) and writes[-v-1] (< 0).
type plan struct {
	reads  []request
	writes []request
	seq    []int32
}

func (p *plan) at(i int) *request {
	v := p.seq[i]
	if v >= 0 {
		return &p.reads[v]
	}
	return &p.writes[-v-1]
}

// churnDoc is the body of an added or replaced document: eight
// paragraphs of background words around one token no other document
// has. The token makes the write observable; the size makes the memtable
// seal (every 32k postings) and fold several times within one run.
func churnDoc(token string, rng *rand.Rand) string {
	var sb strings.Builder
	sb.WriteString("<doc>")
	for p := 0; p < 8; p++ {
		sb.WriteString("<p>")
		for w := 0; w < 50; w++ {
			fmt.Fprintf(&sb, "w%06d ", rng.Intn(2000))
		}
		if p == 1 {
			sb.WriteString(token)
		}
		sb.WriteString("</p>")
	}
	sb.WriteString("</doc>")
	return sb.String()
}

// churnPlan interleaves 10% writes (add 6, update 3, delete 1) into a
// zipf read stream. Updates and deletes target a document this client
// added earlier in its own sequence and has not deleted, so every write
// succeeds whatever the other clients do.
func churnPlan(reads []request, z *zipf, client, n int, rng *rand.Rand) plan {
	pl := plan{reads: reads, seq: make([]int32, n)}
	var live []string
	serial := 0
	write := func(r request) int32 {
		pl.writes = append(pl.writes, r)
		return int32(-len(pl.writes))
	}
	add := func() int32 {
		serial++
		name := fmt.Sprintf("c%d-%07d.xml", client, serial)
		tok := fmt.Sprintf("zadd%dx%d", client, serial)
		live = append(live, name)
		return write(request{route: rAdd, doc: name, token: tok,
			raw: rawRequest("POST", "/docs", mustJSON(server.IngestRequest{Name: name, XML: churnDoc(tok, rng)}))})
	}
	for i := range pl.seq {
		x := rng.Intn(100)
		switch {
		case x >= 10:
			pl.seq[i] = int32(z.rank(rng))
		case x < 6 || len(live) == 0:
			pl.seq[i] = add()
		case x < 9:
			serial++
			name := live[rng.Intn(len(live))]
			tok := fmt.Sprintf("zupd%dx%d", client, serial)
			pl.seq[i] = write(request{route: rUpdate, doc: name, token: tok,
				raw: rawRequest("PUT", "/docs/"+name, mustJSON(server.IngestRequest{XML: churnDoc(tok, rng)}))})
		default:
			j := rng.Intn(len(live))
			name := live[j]
			live[j] = live[len(live)-1]
			live = live[:len(live)-1]
			pl.seq[i] = write(request{route: rDelete, doc: name, raw: rawRequest("DELETE", "/docs/"+name, nil)})
		}
	}
	return pl
}

// Sequence lengths: enough that no client runs out at the rates this
// stack reaches on loopback; a read-only client that does wraps around.
const (
	readOpsPerSecond  = 40000
	churnOpsPerSecond = 4000 // each write carries its own 3 KB body
)

// buildPlans fixes every client's request sequence from the seed.
func buildPlans(w workload, seed int64, clients int, seconds float64) []plan {
	p := plantedFor(w.docs)
	plans := make([]plan, clients)
	switch {
	case w.articles > 0:
		reads, weights := coldRequests(p)
		for c := range plans {
			rng := rand.New(rand.NewSource(seed*1000 + int64(c) + 1))
			plans[c] = plan{reads: reads, seq: weightedDraw(weights, int(seconds*readOpsPerSecond), rng)}
		}
	default:
		reads := hotRequests(p)
		z := newZipf(len(reads), 1.0)
		for c := range plans {
			rng := rand.New(rand.NewSource(seed*1000 + int64(c) + 1))
			if w.ingest {
				plans[c] = churnPlan(reads, z, c, int(seconds*churnOpsPerSecond), rng)
				continue
			}
			seq := make([]int32, int(seconds*readOpsPerSecond))
			for i := range seq {
				seq[i] = int32(z.rank(rng))
			}
			plans[c] = plan{reads: reads, seq: seq}
		}
	}
	return plans
}
