package server

import (
	"context"
	"encoding/json"
	"net/http"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/exec"
	"repro/internal/fleet"
	"repro/internal/shard"
	"repro/internal/storage"
)

// decodeError asserts that resp carries the documented JSON error schema
// and returns the decoded body.
func decodeError(t *testing.T, resp *http.Response, wantStatus int, wantCode string) ErrorResponse {
	t.Helper()
	if resp.StatusCode != wantStatus {
		t.Errorf("status = %d, want %d", resp.StatusCode, wantStatus)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
		t.Errorf("Content-Type = %q, want application/json", ct)
	}
	var e ErrorResponse
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
		t.Fatalf("decode error body: %v", err)
	}
	if e.Code != wantCode {
		t.Errorf("code = %q, want %q", e.Code, wantCode)
	}
	if e.Status != wantStatus {
		t.Errorf("body status = %d, want %d", e.Status, wantStatus)
	}
	if e.Error == "" {
		t.Error("empty error message")
	}
	// Transient statuses are marked retryable and carry a Retry-After
	// hint; deterministic errors must advertise neither.
	wantRetryable := wantStatus == http.StatusRequestTimeout ||
		wantStatus == http.StatusTooManyRequests ||
		wantStatus == http.StatusServiceUnavailable
	if e.Retryable != wantRetryable {
		t.Errorf("retryable = %v for status %d, want %v", e.Retryable, wantStatus, wantRetryable)
	}
	ra := resp.Header.Get("Retry-After")
	if wantRetryable && ra == "" {
		t.Errorf("status %d missing Retry-After header", wantStatus)
	}
	if !wantRetryable && ra != "" {
		t.Errorf("status %d carries unexpected Retry-After %q", wantStatus, ra)
	}
	if ra != "" {
		if secs, err := strconv.Atoi(ra); err != nil || secs < 1 {
			t.Errorf("Retry-After = %q, want integer seconds ≥ 1", ra)
		}
	}
	return e
}

func TestQueryTimeoutReturns408(t *testing.T) {
	s, ts, reg := newIsolatedServer(t)
	s.QueryTimeout = time.Nanosecond
	resp, err := http.Post(ts.URL+"/query", "application/json",
		strings.NewReader(`{"query":"For $a := document(\"articles.xml\")//section Sortby(score)"}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	decodeError(t, resp, http.StatusRequestTimeout, "timeout")
	if got := reg.Counter(`tix_query_timeouts_total{op="query"}`).Value(); got != 1 {
		t.Errorf("tix_query_timeouts_total = %d, want 1", got)
	}
}

func TestTermsTimeoutReturns408(t *testing.T) {
	s, ts, _ := newIsolatedServer(t)
	s.QueryTimeout = time.Nanosecond
	resp, err := http.Post(ts.URL+"/terms", "application/json",
		strings.NewReader(`{"terms":["search","engine"]}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	decodeError(t, resp, http.StatusRequestTimeout, "timeout")
}

func TestAccessLimitReturns422(t *testing.T) {
	s, ts, reg := newIsolatedServer(t)
	s.DB.(*shard.DB).SetLimits(exec.Limits{MaxAccesses: 5, CheckEvery: 1})
	resp, err := http.Post(ts.URL+"/terms", "application/json",
		strings.NewReader(`{"terms":["search","engine"]}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	e := decodeError(t, resp, http.StatusUnprocessableEntity, "limit_exceeded")
	if !strings.Contains(e.Error, "store accesses") {
		t.Errorf("error %q does not name the exhausted resource", e.Error)
	}
	if got := reg.Counter(`tix_query_limit_exceeded_total{op="terms"}`).Value(); got != 1 {
		t.Errorf("tix_query_limit_exceeded_total = %d, want 1", got)
	}
}

func TestInjectedFaultReturns503(t *testing.T) {
	s, ts, reg := newIsolatedServer(t)
	s.DB.Stats() // build the index before arming faults
	s.DB.(*shard.DB).SetFaults(&storage.FaultInjector{FailEvery: 1})
	resp, err := http.Post(ts.URL+"/terms", "application/json",
		strings.NewReader(`{"terms":["search","engine"]}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	decodeError(t, resp, http.StatusServiceUnavailable, "unavailable")
	if got := reg.Counter(`tix_query_faults_total{op="terms"}`).Value(); got != 1 {
		t.Errorf("tix_query_faults_total = %d, want 1", got)
	}

	// The server keeps serving after the fault: disarm and retry.
	s.DB.(*shard.DB).SetFaults(nil)
	resp2, err := http.Post(ts.URL+"/terms", "application/json",
		strings.NewReader(`{"terms":["search"]}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Errorf("after disarm: status = %d", resp2.StatusCode)
	}
}

func TestBadRequestSchema(t *testing.T) {
	_, ts, _ := newIsolatedServer(t)
	resp, err := http.Post(ts.URL+"/terms", "application/json", strings.NewReader(`{not json`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	decodeError(t, resp, http.StatusBadRequest, "bad_request")
}

func TestRateLimitReturns429(t *testing.T) {
	s, ts, reg := newIsolatedServer(t)
	s.Admission = fleet.NewAdmission(fleet.AdmissionConfig{
		RatePerSec: 0.001, Burst: 2, Metrics: reg,
	})
	// The burst admits two requests; the third gets a typed 429.
	for i := 0; i < 2; i++ {
		resp, err := http.Get(ts.URL + "/stats")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d within burst: status %d", i, resp.StatusCode)
		}
	}
	resp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	decodeError(t, resp, http.StatusTooManyRequests, "rate_limited")
	// Probes and metrics stay exempt even while the client is limited.
	for _, path := range []string{"/healthz", "/readyz", "/metrics"} {
		r2, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		r2.Body.Close()
		if r2.StatusCode != http.StatusOK {
			t.Errorf("%s sheddable under rate limiting: status %d", path, r2.StatusCode)
		}
	}
}

func TestOverloadReturns503(t *testing.T) {
	s, ts, reg := newIsolatedServer(t)
	s.Admission = fleet.NewAdmission(fleet.AdmissionConfig{
		MaxInflight: 1, MaxQueue: 1, Metrics: reg,
	})
	// Occupy the only slot from inside a handler via a slow query: use the
	// admission controller directly (the handler path is exercised above).
	release, err := s.Admission.Admit(context.Background(), "holder")
	if err != nil {
		t.Fatal(err)
	}
	// Fill the queue…
	queued := make(chan struct{})
	go func() {
		r, err := s.Admission.Admit(context.Background(), "q")
		if err == nil {
			r()
		}
		close(queued)
	}()
	deadline := time.Now().Add(time.Second)
	for time.Now().Before(deadline) {
		if reg.Gauge("tix_admission_queued").Value() > 0 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	// …so the next HTTP request is shed with a typed 503.
	resp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	e := decodeError(t, resp, http.StatusServiceUnavailable, "overloaded")
	if !e.Retryable {
		t.Error("overload rejection not marked retryable")
	}
	release()
	<-queued
}
