package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"net"
	"net/http"
	"sync"
	"time"
)

// client is one application server talking to TIX: a single keep-alive
// connection that sends a request and waits for the whole reply.
type client struct {
	conn net.Conn
	br   *bufio.Reader
	body bytes.Buffer
}

func dial(addr string) (*client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &client{conn: conn, br: bufio.NewReaderSize(conn, 64<<10)}, nil
}

func (c *client) close() { _ = c.conn.Close() }

// do writes one pre-encoded request and reads the reply. The returned
// body is valid until the next call.
func (c *client) do(raw []byte) (status int, body []byte, err error) {
	if _, err = c.conn.Write(raw); err != nil {
		return 0, nil, err
	}
	resp, err := http.ReadResponse(c.br, nil)
	if err != nil {
		return 0, nil, err
	}
	c.body.Reset()
	_, err = c.body.ReadFrom(resp.Body)
	_ = resp.Body.Close() // fully read above; Close cannot fail usefully
	if err != nil {
		return 0, nil, err
	}
	return resp.StatusCode, c.body.Bytes(), nil
}

// digest is what a read request answered during warm-up; every later
// answer to the same request on a read-only workload must match it.
type digest struct {
	status int
	count  int
	hash   uint32 // crc32.ChecksumIEEE of the body
}

// learnDigests sends every distinct read once, records its digest and
// checks the planted invariant on its count. It returns the number of
// invariant violations with a description of the first.
func learnDigests(c *client, reads []request) ([]digest, int, error) {
	digests := make([]digest, len(reads))
	bad := 0
	var first error
	for i := range reads {
		r := &reads[i]
		status, body, err := c.do(r.raw)
		if err != nil {
			return nil, 0, fmt.Errorf("learn %s: %w", r.route, err)
		}
		var parsed struct {
			Count int `json:"count"`
		}
		if status != http.StatusOK || json.Unmarshal(body, &parsed) != nil {
			return nil, 0, fmt.Errorf("learn %s %v: status %d body %.120q", r.route, r.terms, status, body)
		}
		digests[i] = digest{status: status, count: parsed.Count, hash: crc32.ChecksumIEEE(body)}
		if r.maxCount > 0 && (parsed.Count < r.minCount || parsed.Count > r.maxCount) {
			bad++
			if first == nil {
				first = fmt.Errorf("%s %v%s: count %d outside planted [%d,%d]", r.route, r.terms, r.query, parsed.Count, r.minCount, r.maxCount)
			}
		}
	}
	return digests, bad, first
}

// sample is one completed operation: when it ended (ns since the phase
// started), how long it took, and what it was.
type sample struct {
	end, lat int64
	route    route
}

// phaseResult is what one timed phase produced.
type phaseResult struct {
	samples   []sample // all clients, unordered
	attempted int
	failed    int
	firstFail string
	executed  []int // per client: how many plan entries were sent
	elapsed   time.Duration
}

// runPhase drives every client closed-loop from its plan, starting at
// offsets[c], until dur has passed. Reads are checked against digests
// when given; any non-2xx, transport error or mismatch counts as failed.
// While rec is on (traced runs, one client) each request is numbered and
// leaves a client span.
func runPhase(addr string, plans []plan, offsets []int, dur time.Duration, digests []digest, rec *recorder) (phaseResult, error) {
	clients := make([]*client, len(plans))
	for i := range clients {
		c, err := dial(addr)
		if err != nil {
			for _, open := range clients[:i] {
				open.close()
			}
			return phaseResult{}, err
		}
		clients[i] = c
	}
	type part struct {
		samples   []sample
		failed    int
		firstFail string
		executed  int
	}
	parts := make([]part, len(plans))
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(dur)
	for ci := range plans {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			c, pl, pt := clients[ci], &plans[ci], &parts[ci]
			defer c.close()
			pt.samples = make([]sample, 0, 1<<16)
			i := offsets[ci]
			for {
				if i >= len(pl.seq) {
					if len(pl.writes) > 0 {
						return // a write plan cannot repeat its unique names
					}
					i = 0
				}
				r := pl.at(i)
				tracing := rec != nil && rec.on.Load()
				if tracing {
					rec.req.Store(int32(pt.executed))
				}
				t0 := time.Now()
				if !t0.Before(deadline) {
					return
				}
				status, body, err := c.do(r.raw)
				t1 := time.Now()
				if tracing {
					rec.add("client."+r.route.String(), t0, t1, false)
				}
				pt.executed++
				i++
				fail := ""
				switch {
				case err != nil:
					fail = err.Error()
				case status < 200 || status > 299:
					fail = fmt.Sprintf("status %d: %.120s", status, body)
				case digests != nil && !r.route.isWrite():
					if d := digests[pl.seq[i-1]]; d.hash != crc32.ChecksumIEEE(body) {
						fail = fmt.Sprintf("answer changed (count was %d): %.120s", d.count, body)
					}
				}
				if fail != "" {
					pt.failed++
					if pt.firstFail == "" {
						pt.firstFail = fmt.Sprintf("%s %s: %s", r.route, r.doc, fail)
					}
					if err != nil {
						return // the connection is gone
					}
				}
				pt.samples = append(pt.samples, sample{end: int64(t1.Sub(start)), lat: int64(t1.Sub(t0)), route: r.route})
			}
		}(ci)
	}
	wg.Wait()
	res := phaseResult{elapsed: time.Since(start), executed: make([]int, len(plans))}
	for ci, pt := range parts {
		res.samples = append(res.samples, pt.samples...)
		res.attempted += pt.executed
		res.failed += pt.failed
		res.executed[ci] = pt.executed
		if res.firstFail == "" {
			res.firstFail = pt.firstFail
		}
	}
	return res, nil
}

// nullRTT is the generator's own floor: the median GET /healthz round
// trip on one keep-alive connection, in microseconds.
func nullRTT(addr string, n int) (float64, error) {
	c, err := dial(addr)
	if err != nil {
		return 0, err
	}
	defer c.close()
	lat := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		t0 := time.Now()
		if _, _, err := c.do(healthzRequest); err != nil {
			return 0, err
		}
		lat = append(lat, float64(time.Since(t0))/1e3)
	}
	return median(lat), nil
}
