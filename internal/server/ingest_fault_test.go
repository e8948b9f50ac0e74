package server

// Ingestion-under-fault drills: document mutations race injected storage
// faults and client disconnects, and the suite asserts the index never
// ends up in a partial state — every acknowledged mutation is fully
// queryable, every failed one leaves no trace, and the mutation
// generation moves only on acknowledged changes.

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"

	"repro/internal/shard"
	"repro/internal/storage"
)

// ingestServer is newIsolatedServer with mutations enabled.
func ingestServer(t *testing.T) (*Server, string, *shard.DB) {
	t.Helper()
	s, ts, _ := newIsolatedServer(t)
	s.EnableIngest = true
	d := s.DB.(*shard.DB)
	d.Stats() // build the index before any fault arming
	return s, ts.URL, d
}

// postDoc adds one document and returns the response.
func postDoc(t *testing.T, url, name, xml string) *http.Response {
	t.Helper()
	body, _ := json.Marshal(IngestRequest{Name: name, XML: xml})
	resp, err := http.Post(url+"/docs", "application/json", strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// countTermHits queries /terms for one term and returns the result count.
func countTermHits(t *testing.T, url, term string) int {
	t.Helper()
	resp, err := http.Post(url+"/terms", "application/json",
		strings.NewReader(fmt.Sprintf(`{"terms":[%q]}`, term)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/terms %s: status %d", term, resp.StatusCode)
	}
	var out struct {
		Count int `json:"count"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out.Count
}

// TestIngestConsistentAcrossQueryFaults runs mutations while every query
// path access is faulting: acknowledged mutations must be fully visible
// once the fault lifts, with the generation having moved once per ack.
func TestIngestConsistentAcrossQueryFaults(t *testing.T) {
	_, url, d := ingestServer(t)
	genBefore := d.Generation()

	// Arm the injector: queries fail, mutations (which bypass the metered
	// read path) must keep working and stay atomic.
	d.SetFaults(&storage.FaultInjector{FailEvery: 1})

	const docs = 8
	var wg sync.WaitGroup
	acks := make([]bool, docs)
	for i := 0; i < docs; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// A single element, so the shared term scores exactly one
			// component per document.
			xml := fmt.Sprintf("<note>chaosterm%d shared zanzibar</note>", i)
			resp := postDoc(t, url, fmt.Sprintf("chaos-%d.xml", i), xml)
			defer resp.Body.Close()
			acks[i] = resp.StatusCode == http.StatusCreated
		}(i)
	}
	// Query traffic racing the mutations: errors are expected (faults are
	// armed); the point is that it must not corrupt concurrent ingestion.
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Post(url+"/terms", "application/json",
				strings.NewReader(`{"terms":["search"]}`))
			if err == nil {
				resp.Body.Close()
			}
		}()
	}
	wg.Wait()
	d.SetFaults(nil)

	acked := 0
	for i, ok := range acks {
		if !ok {
			t.Errorf("add chaos-%d.xml not acknowledged", i)
			continue
		}
		acked++
		// Each acknowledged document is individually and fully queryable.
		if got := countTermHits(t, url, fmt.Sprintf("chaosterm%d", i)); got == 0 {
			t.Errorf("acked document chaos-%d.xml not queryable after fault lift", i)
		}
	}
	// The shared term sees every acked document exactly once — no partial
	// or duplicated postings.
	if got := countTermHits(t, url, "zanzibar"); got != acked {
		t.Errorf("shared term hits = %d, want %d (one per acked doc)", got, acked)
	}
	if gen := d.Generation(); gen != genBefore+uint64(acked) {
		t.Errorf("generation = %d, want %d + %d acks", gen, genBefore, acked)
	}
}

// TestIngestClientDisconnectMidBody simulates a client dying halfway
// through streaming the request body: the decode fails and the index
// must be untouched — same generation, no phantom document.
func TestIngestClientDisconnectMidBody(t *testing.T) {
	_, url, d := ingestServer(t)
	genBefore := d.Generation()
	docsBefore := d.DocumentCount()

	pr, pw := io.Pipe()
	go func() {
		// Half a JSON body, then the connection "drops".
		pw.Write([]byte(`{"name":"phantom.xml","xml":"<note>orphanterm`)) //nolint:errcheck
		pw.CloseWithError(io.ErrUnexpectedEOF)
	}()
	resp, err := http.Post(url+"/docs", "application/json", pr)
	if err == nil {
		// Depending on timing the server may answer 400 before noticing the
		// broken body; either way it must be an error, not a 201.
		if resp.StatusCode == http.StatusCreated {
			t.Fatal("truncated request acknowledged as created")
		}
		resp.Body.Close()
	}

	if gen := d.Generation(); gen != genBefore {
		t.Errorf("generation moved on a failed request: %d → %d", genBefore, gen)
	}
	if got := d.DocumentCount(); got != docsBefore {
		t.Errorf("document count moved on a failed request: %d → %d", docsBefore, got)
	}
	if got := countTermHits(t, url, "orphanterm"); got != 0 {
		t.Errorf("partial document content queryable: %d hits", got)
	}
}

// cancellingBody is a request body that models a client giving up
// mid-stream: the first Read yields a partial JSON chunk and cancels the
// request context; every later Read blocks until the cancellation lands
// and then reports it. The abort must flow through the body itself —
// the transport cannot interrupt an in-flight Body.Read, so a body that
// ignores cancellation (e.g. an io.Pipe left open) deadlocks Do: on
// cancel the transport waits for its write loop, which waits on Read.
type cancellingBody struct {
	ctx    context.Context
	cancel context.CancelFunc
	chunk  []byte
	sent   bool
}

func (b *cancellingBody) Read(p []byte) (int, error) {
	if !b.sent {
		b.sent = true
		n := copy(p, b.chunk)
		b.cancel() // client gives up mid-body
		return n, nil
	}
	<-b.ctx.Done()
	return 0, b.ctx.Err()
}

// TestIngestClientCancellationMidRequest aborts the request via context
// cancellation while the body is still streaming; the server must treat
// it exactly like a disconnect — no partial index state.
func TestIngestClientCancellationMidRequest(t *testing.T) {
	_, url, d := ingestServer(t)
	genBefore := d.Generation()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	body := &cancellingBody{ctx: ctx, cancel: cancel,
		chunk: []byte(`{"name":"ghost.xml","xml":"<note>ghostterm`)}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url+"/docs", body)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err == nil {
		if resp.StatusCode == http.StatusCreated {
			t.Fatal("cancelled request acknowledged as created")
		}
		resp.Body.Close()
	}

	if gen := d.Generation(); gen != genBefore {
		t.Errorf("generation moved on a cancelled request: %d → %d", genBefore, gen)
	}
	if got := countTermHits(t, url, "ghostterm"); got != 0 {
		t.Errorf("cancelled request left queryable content: %d hits", got)
	}
}

// TestUpdateDeleteUnderFaults drives the full mutation lifecycle while
// faults come and go: updates replace content atomically (old content
// vanishes exactly when new appears) and deletes leave no residue.
func TestUpdateDeleteUnderFaults(t *testing.T) {
	_, url, d := ingestServer(t)

	resp := postDoc(t, url, "life.xml", "<note>firstphase</note>")
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("add: status %d", resp.StatusCode)
	}
	if got := countTermHits(t, url, "firstphase"); got != 1 {
		t.Fatalf("added doc hits = %d, want 1", got)
	}

	// Update while queries are faulting.
	d.SetFaults(&storage.FaultInjector{FailEvery: 1})
	body, _ := json.Marshal(IngestRequest{XML: "<note>secondphase</note>"})
	req, err := http.NewRequest(http.MethodPut, url+"/docs/life.xml", strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	putResp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	putResp.Body.Close()
	if putResp.StatusCode != http.StatusOK {
		t.Fatalf("update under faults: status %d", putResp.StatusCode)
	}
	d.SetFaults(nil)

	// The replacement is atomic: old term gone, new term present.
	if got := countTermHits(t, url, "firstphase"); got != 0 {
		t.Errorf("old content still queryable after update: %d hits", got)
	}
	if got := countTermHits(t, url, "secondphase"); got != 1 {
		t.Errorf("new content hits = %d, want 1", got)
	}

	// Delete, again with faults armed mid-lifecycle.
	d.SetFaults(&storage.FaultInjector{FailEvery: 1, Seed: 3})
	delReq, err := http.NewRequest(http.MethodDelete, url+"/docs/life.xml", nil)
	if err != nil {
		t.Fatal(err)
	}
	delResp, err := http.DefaultClient.Do(delReq)
	if err != nil {
		t.Fatal(err)
	}
	delResp.Body.Close()
	if delResp.StatusCode != http.StatusOK {
		t.Fatalf("delete under faults: status %d", delResp.StatusCode)
	}
	d.SetFaults(nil)

	if got := countTermHits(t, url, "secondphase"); got != 0 {
		t.Errorf("deleted content still queryable: %d hits", got)
	}
	// Wait out any background compaction so the drill ends quiescent.
	d.WaitCompaction()
	if got := d.CompactionBacklog(); got < 0 {
		t.Errorf("negative compaction backlog %d", got)
	}
}
