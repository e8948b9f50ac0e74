// Package server exposes a TIX database over HTTP with a small JSON API —
// the front end a downstream user would put in front of the engine:
//
//	GET  /stats                      database statistics
//	GET  /healthz                    liveness/readiness probe
//	GET  /metrics                    Prometheus-format metrics exposition
//	POST /query    {"query": "..."}  extended-XQuery evaluation
//	POST /terms    {"terms": [...], "topK": 10, "complex": false}
//	POST /phrase   {"phrase": [...]}
//
// With EnableIngest set (tixserve -ingest) and a mutating backend, the
// document endpoints are live too (see Ingestor):
//
//	POST   /docs          {"name": "...", "xml": "..."}  add
//	PUT    /docs/{name}   {"xml": "..."}                 replace
//	DELETE /docs/{name}                                  delete
//
// Results carry scores and the serialized XML of the matched components.
// Every handler runs behind a logging/metrics middleware; request bodies
// are bounded, JSON decoding is strict, and the listener applies full
// read/write/idle timeouts with graceful shutdown support.
//
// # Error schema
//
// Every non-2xx response carries a JSON body of the form
//
//	{"error": "...", "code": "<machine code>", "status": <http status>, "retryable": <bool>}
//
// with these codes:
//
//	bad_request     400  malformed JSON, empty query/terms/phrase
//	unprocessable   422  query parse/evaluation errors
//	limit_exceeded  422  a resource budget (results, store accesses) ran out
//	payload_too_large 413  request body over the configured bound
//	timeout         408  evaluation exceeded its deadline (QueryTimeout or client deadline)
//	canceled        503  the client disconnected mid-evaluation
//	unavailable     503  a storage fault or recovered internal panic
//	rate_limited    429  the client exhausted its admission token bucket
//	overloaded      503  the global concurrency gate shed the request
//	conflict        409  adding a document name that already exists
//	not_found       404  updating/deleting a document that is not loaded
//	not_implemented 501  ingestion disabled or unsupported by the backend
//
// Transient statuses (408, 429, 503) set "retryable": true and carry a
// Retry-After header (integer seconds) so well-behaved clients back off
// rather than hammering a degraded tier; every other error is
// deterministic and marked non-retryable.
//
// Query evaluation runs under the request's context — a client disconnect
// cancels the scan cooperatively — bounded by the server's QueryTimeout.
// With an Admission controller configured, requests pass per-client rate
// limiting and a global concurrency gate before reaching the backend; the
// /readyz endpoint reports whether the tier should receive traffic at all
// (at least one healthy replica, compaction backlog under control),
// distinct from the pure liveness /healthz.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net/http"
	"net/http/pprof"
	"strconv"
	"time"

	"repro/internal/db"
	"repro/internal/exec"
	"repro/internal/fleet"
	"repro/internal/metrics"
	"repro/internal/storage"
)

// Backend is the database surface the server runs on — the fleet's
// replica surface, so one server binary fronts a sharded *shard.DB or a
// replicated *fleet.Fleet of them. All methods must be safe for concurrent
// read use once the backend is fully loaded.
type Backend = fleet.Backend

// Server wraps a database with HTTP handlers. The database must be fully
// loaded before serving; handlers only read, so concurrent requests are
// safe.
type Server struct {
	DB Backend
	// MaxResults caps the number of results returned per request
	// (default 100).
	MaxResults int
	// MaxBodyBytes bounds every request body; oversized bodies are
	// rejected with 413 before decoding (default 1 MiB).
	MaxBodyBytes int64
	// Metrics overrides the registry the HTTP middleware records into and
	// /metrics exposes. When nil, the database's registry is used, so
	// engine and HTTP metrics share one exposition.
	Metrics *metrics.Registry
	// Logger, when non-nil, receives one line per request (method, path,
	// status, duration, bytes, remote address).
	Logger *log.Logger
	// EnablePprof mounts net/http/pprof under /debug/pprof/ (wired to the
	// tixserve -pprof flag; off by default — profiling endpoints should
	// not be open on a production port unasked).
	EnablePprof bool
	// QueryTimeout bounds the evaluation time of every query-running
	// request (0 = none). Exceeding it aborts the scan cooperatively and
	// returns 408 with code "timeout". Client disconnects cancel the scan
	// regardless.
	QueryTimeout time.Duration
	// EnableIngest exposes the document mutation endpoints (POST/PUT/
	// DELETE under /docs) when the backend satisfies Ingestor. Off by
	// default: a read-only query server should not accept writes unasked.
	EnableIngest bool
	// Admission, when non-nil, applies admission control (per-client rate
	// limiting plus a global concurrency gate) in front of every handler
	// except the probes (/healthz, /readyz) and /metrics. Rejections
	// return typed 429/503 errors with Retry-After hints.
	Admission *fleet.Admission
	// MaxCompactionBacklog is the /readyz threshold on the backend's
	// outstanding compaction work (frozen memtables plus uncompacted
	// surplus segments): above it the server reports not-ready so load
	// balancers drain traffic until compaction catches up. 0 selects the
	// default (64); negative disables the check. Only backends exposing
	// CompactionBacklog() participate.
	MaxCompactionBacklog int

	started time.Time
}

// New returns a server over a backend (a *shard.DB or a *fleet.Fleet).
func New(d Backend) *Server {
	return &Server{DB: d, MaxResults: 100, started: time.Now()}
}

// registry returns the metrics registry this server records into.
func (s *Server) registry() *metrics.Registry {
	if s.Metrics != nil {
		return s.Metrics
	}
	if s.DB != nil {
		return s.DB.MetricsRegistry()
	}
	return metrics.Default
}

// Handler returns the HTTP handler tree, wrapped in the observability
// middleware.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /stats", s.handleStats)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("POST /query", s.handleQuery)
	mux.HandleFunc("POST /explain", s.handleExplain)
	mux.HandleFunc("POST /terms", s.handleTerms)
	mux.HandleFunc("POST /phrase", s.handlePhrase)
	mux.HandleFunc("POST /docs", s.handleAddDoc)
	mux.HandleFunc("PUT /docs/{name}", s.handleUpdateDoc)
	mux.HandleFunc("DELETE /docs/{name}", s.handleDeleteDoc)
	if s.EnablePprof {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return s.withObservability(s.withAdmission(mux))
}

// httpServer builds the hardened listener configuration.
func (s *Server) httpServer(addr string) *http.Server {
	return &http.Server{
		Addr:              addr,
		Handler:           s.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       30 * time.Second,
		WriteTimeout:      60 * time.Second,
		IdleTimeout:       120 * time.Second,
	}
}

// ListenAndServe serves on addr until the listener fails.
func (s *Server) ListenAndServe(addr string) error {
	return s.httpServer(addr).ListenAndServe()
}

// ListenAndServeContext serves on addr until the listener fails or ctx is
// cancelled; on cancellation, in-flight requests drain gracefully for up
// to the given timeout before the server is forced closed.
func (s *Server) ListenAndServeContext(ctx context.Context, addr string, drainTimeout time.Duration) error {
	srv := s.httpServer(addr)
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
		// The drain context must be detached: ctx is already done here,
		// and deriving from it would cancel the graceful drain instantly.
		//tixlint:ignore ctxhygiene intentional detached lifetime — the drain window starts after the caller's context is done
		shutdownCtx, cancel := context.WithTimeout(context.Background(), drainTimeout)
		defer cancel()
		if err := srv.Shutdown(shutdownCtx); err != nil {
			return fmt.Errorf("server: shutdown: %w", err)
		}
		<-errc // always http.ErrServerClosed after a clean Shutdown
		return nil
	}
}

func (s *Server) maxResults() int {
	if s.MaxResults <= 0 {
		return 100
	}
	return s.MaxResults
}

func (s *Server) maxBodyBytes() int64 {
	if s.MaxBodyBytes <= 0 {
		return 1 << 20
	}
	return s.MaxBodyBytes
}

// queryCtx derives the evaluation context for one request: the request's
// own context (canceled when the client disconnects) bounded by the
// server's per-query timeout.
func (s *Server) queryCtx(r *http.Request) (context.Context, context.CancelFunc) {
	if s.QueryTimeout > 0 {
		return context.WithTimeout(r.Context(), s.QueryTimeout)
	}
	return r.Context(), func() {}
}

// decodeJSON decodes a bounded, strict JSON request body into v. On
// failure it writes the error response (413 for oversized bodies, 400
// otherwise) and returns false.
func (s *Server) decodeJSON(w http.ResponseWriter, r *http.Request, v interface{}) bool {
	r.Body = http.MaxBytesReader(w, r.Body, s.maxBodyBytes())
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			errorJSON(w, http.StatusRequestEntityTooLarge,
				fmt.Errorf("request body exceeds %d bytes", tooBig.Limit))
			return false
		}
		errorJSON(w, http.StatusBadRequest, fmt.Errorf("bad request body: %w", err))
		return false
	}
	return true
}

// ErrorResponse is the JSON body of every non-2xx response (see the
// package documentation for the code taxonomy).
type ErrorResponse struct {
	Error  string `json:"error"`
	Code   string `json:"code"`
	Status int    `json:"status"`
	// Retryable reports whether the same request may succeed if retried
	// after backing off: true exactly for the transient statuses (408,
	// 429, 503), which also carry a Retry-After header.
	Retryable bool `json:"retryable"`
}

// retryable reports whether a status is transient: the request itself is
// fine and may succeed on a later attempt (or a different replica).
func retryable(status int) bool {
	switch status {
	case http.StatusRequestTimeout, http.StatusTooManyRequests, http.StatusServiceUnavailable:
		return true
	}
	return false
}

// retryAfterSeconds derives the Retry-After hint for a transient error:
// the admission controller's own estimate when available (rounded up to a
// whole second, the header's granularity), else a conservative 1s.
func retryAfterSeconds(err error) int {
	var ae *fleet.AdmissionError
	if errors.As(err, &ae) && ae.RetryAfter > 0 {
		secs := int((ae.RetryAfter + time.Second - 1) / time.Second)
		if secs < 1 {
			secs = 1
		}
		return secs
	}
	return 1
}

// evalStatus maps an evaluation error to its HTTP status: deadline → 408,
// cancellation and storage faults/panics → 503, everything else (parse
// errors, resource limits) → 422.
func evalStatus(err error) int {
	switch {
	case errors.Is(err, exec.ErrDeadlineExceeded):
		return http.StatusRequestTimeout
	case errors.Is(err, exec.ErrCanceled), errors.Is(err, storage.ErrInjectedFault):
		return http.StatusServiceUnavailable
	}
	return http.StatusUnprocessableEntity
}

// errorCode derives the machine-readable code of an error response.
func errorCode(status int, err error) string {
	switch {
	case errors.Is(err, fleet.ErrRateLimited):
		return "rate_limited"
	case errors.Is(err, fleet.ErrOverloaded):
		return "overloaded"
	case errors.Is(err, exec.ErrDeadlineExceeded):
		return "timeout"
	case errors.Is(err, exec.ErrCanceled):
		return "canceled"
	case errors.Is(err, exec.ErrLimitExceeded):
		return "limit_exceeded"
	case errors.Is(err, storage.ErrInjectedFault):
		return "unavailable"
	}
	switch status {
	case http.StatusBadRequest:
		return "bad_request"
	case http.StatusTooManyRequests:
		return "rate_limited"
	case http.StatusRequestEntityTooLarge:
		return "payload_too_large"
	case http.StatusRequestTimeout:
		return "timeout"
	case http.StatusServiceUnavailable:
		return "unavailable"
	case http.StatusInternalServerError:
		return "internal"
	case http.StatusConflict:
		return "conflict"
	case http.StatusNotFound:
		return "not_found"
	case http.StatusNotImplemented:
		return "not_implemented"
	}
	return "unprocessable"
}

// errorJSON writes the structured JSON error payload; transient statuses
// also carry a Retry-After header.
func errorJSON(w http.ResponseWriter, status int, err error) {
	w.Header().Set("Content-Type", "application/json")
	canRetry := retryable(status)
	if canRetry {
		w.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds(err)))
	}
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(ErrorResponse{
		Error:     err.Error(),
		Code:      errorCode(status, err),
		Status:    status,
		Retryable: canRetry,
	})
}

// evalError writes the error response for a failed query evaluation.
func evalError(w http.ResponseWriter, err error) {
	errorJSON(w, evalStatus(err), err)
}

// writeJSON writes v as a JSON reply, or a 500 with code "internal" when v
// cannot be encoded.
func writeJSON(w http.ResponseWriter, v interface{}) {
	b, err := json.Marshal(v)
	if err != nil {
		errorJSON(w, http.StatusInternalServerError, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write(append(b, '\n')) // a failed write means the client is gone
}

// StatsResponse is the /stats payload.
type StatsResponse struct {
	Documents   int   `json:"documents"`
	Nodes       int   `json:"nodes"`
	Elements    int   `json:"elements"`
	Terms       int   `json:"terms"`
	Occurrences int64 `json:"occurrences"`
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	st := s.DB.Stats()
	writeJSON(w, StatsResponse{
		Documents:   st.Documents,
		Nodes:       st.Nodes,
		Elements:    st.Elements,
		Terms:       st.Terms,
		Occurrences: st.Occurrences,
	})
}

// HealthzResponse is the /healthz payload.
type HealthzResponse struct {
	Status        string  `json:"status"`
	Documents     int     `json:"documents"`
	UptimeSeconds float64 `json:"uptimeSeconds"`
}

// handleHealthz is the liveness/readiness probe: cheap (no index forcing),
// always 200 once the process serves, with the loaded-document count so
// orchestration can distinguish "up" from "up and serving data".
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, HealthzResponse{
		Status:        "ok",
		Documents:     s.DB.DocumentCount(),
		UptimeSeconds: time.Since(s.started).Seconds(),
	})
}

// ReadyzResponse is the /readyz payload.
type ReadyzResponse struct {
	Status string `json:"status"` // "ready" or "unavailable"
	// Reason explains a not-ready verdict (empty when ready).
	Reason string `json:"reason,omitempty"`
	// HealthyReplicas counts backends admitting traffic (-1 when the
	// backend is not replicated).
	HealthyReplicas int `json:"healthyReplicas"`
	// CompactionBacklog is the backend's outstanding compaction work
	// (frozen memtables plus surplus segments; 0 when not exposed).
	CompactionBacklog int `json:"compactionBacklog"`
}

// readinessProber is the optional backend surface /readyz consults; the
// fleet implements it (ready once ≥1 replica's breaker admits traffic).
type readinessProber interface {
	Ready() (ok bool, reason string)
}

// compactionBackloger is the optional backend surface reporting
// outstanding compaction work (shard.DB and the fleet expose it).
type compactionBackloger interface {
	CompactionBacklog() int
}

// handleReadyz is the traffic-readiness probe, distinct from the /healthz
// liveness probe: a live process may still be unfit for traffic — every
// replica's breaker open, or (with ingestion) a compaction backlog deep
// enough that reads degrade. Not-ready returns 503 with a JSON reason so
// a load balancer can drain the instance while /healthz keeps it alive.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	resp := ReadyzResponse{Status: "ready", HealthyReplicas: -1}
	if cb, ok := s.DB.(compactionBackloger); ok {
		resp.CompactionBacklog = cb.CompactionBacklog()
	}
	if rp, ok := s.DB.(readinessProber); ok {
		if hr, ok := s.DB.(interface{ HealthyReplicas() int }); ok {
			resp.HealthyReplicas = hr.HealthyReplicas()
		}
		if ok, reason := rp.Ready(); !ok {
			resp.Status = "unavailable"
			resp.Reason = reason
		}
	}
	if resp.Status == "ready" && s.EnableIngest {
		max := s.MaxCompactionBacklog
		if max == 0 {
			max = 64
		}
		if max > 0 && resp.CompactionBacklog > max {
			resp.Status = "unavailable"
			resp.Reason = fmt.Sprintf("compaction backlog %d exceeds threshold %d",
				resp.CompactionBacklog, max)
		}
	}
	w.Header().Set("Content-Type", "application/json")
	if resp.Status != "ready" {
		w.Header().Set("Retry-After", "1")
		w.WriteHeader(http.StatusServiceUnavailable)
	}
	_ = json.NewEncoder(w).Encode(resp)
}

// handleMetrics exposes the registry in the Prometheus text format.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = s.registry().WriteText(w)
}

// QueryRequest is the /query payload.
type QueryRequest struct {
	Query string `json:"query"`
}

// QueryResult is one result of /query. The reply is written by
// replyEncoder.queryReply, byte for byte as encoding/json writes
// {"count": n, "results": []QueryResult}.
type QueryResult struct {
	Tag   string  `json:"tag"`
	Score float64 `json:"score"`
	Sim   float64 `json:"sim,omitempty"`
	XML   string  `json:"xml"`
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	var req QueryRequest
	if !s.decodeJSON(w, r, &req) {
		return
	}
	if req.Query == "" {
		errorJSON(w, http.StatusBadRequest, fmt.Errorf("empty query"))
		return
	}
	c, key := s.queryKey(req.Query)
	if serveCached(w, c, key) {
		return
	}
	ctx, cancel := s.queryCtx(r)
	defer cancel()
	results, err := s.DB.QueryContext(ctx, req.Query)
	if err != nil {
		evalError(w, err)
		return
	}
	sc := getReply()
	defer putReply(sc)
	sc.enc.queryReply(len(results), results[:min(len(results), s.maxResults())])
	sc.enc.send(w)
	storeReply(c, key, &sc.enc)
}

func (s *Server) handleExplain(w http.ResponseWriter, r *http.Request) {
	var req QueryRequest
	if !s.decodeJSON(w, r, &req) {
		return
	}
	if req.Query == "" {
		errorJSON(w, http.StatusBadRequest, fmt.Errorf("empty query"))
		return
	}
	plan, err := s.DB.Explain(req.Query)
	if err != nil {
		errorJSON(w, http.StatusUnprocessableEntity, err)
		return
	}
	writeJSON(w, map[string]string{"plan": plan})
}

// TermsRequest is the /terms payload.
type TermsRequest struct {
	Terms   []string `json:"terms"`
	TopK    int      `json:"topK"`
	Complex bool     `json:"complex"`
}

// TermResult is one result of /terms (written by
// replyEncoder.termsReply).
type TermResult struct {
	Tag   string  `json:"tag"`
	Doc   int32   `json:"doc"`
	Ord   int32   `json:"ord"`
	Score float64 `json:"score"`
}

func (s *Server) handleTerms(w http.ResponseWriter, r *http.Request) {
	var req TermsRequest
	if !s.decodeJSON(w, r, &req) {
		return
	}
	if len(req.Terms) == 0 {
		errorJSON(w, http.StatusBadRequest, fmt.Errorf("no terms"))
		return
	}
	topK := req.TopK
	if topK <= 0 || topK > s.maxResults() {
		topK = s.maxResults()
	}
	c, key := s.termsKey(req.Terms, topK, req.Complex)
	if serveCached(w, c, key) {
		return
	}
	ctx, cancel := s.queryCtx(r)
	defer cancel()
	results, err := s.DB.TermSearchContext(ctx, req.Terms, db.TermSearchOptions{TopK: topK, Complex: req.Complex})
	if err != nil {
		evalError(w, err)
		return
	}
	sc := getReply()
	defer putReply(sc)
	sc.labels = s.DB.Render(sc.labels, results)
	sc.enc.termsReply(results, sc.labels)
	sc.enc.send(w)
	storeReply(c, key, &sc.enc)
}

// PhraseRequest is the /phrase payload.
type PhraseRequest struct {
	Phrase []string `json:"phrase"`
}

// PhraseResult is one phrase occurrence (written by
// replyEncoder.phraseReply).
type PhraseResult struct {
	Doc  int32  `json:"doc"`
	Node int32  `json:"node"`
	Pos  uint32 `json:"pos"`
	Text string `json:"text"`
}

func (s *Server) handlePhrase(w http.ResponseWriter, r *http.Request) {
	var req PhraseRequest
	if !s.decodeJSON(w, r, &req) {
		return
	}
	if len(req.Phrase) == 0 {
		errorJSON(w, http.StatusBadRequest, fmt.Errorf("empty phrase"))
		return
	}
	c, key := s.phraseKey(req.Phrase)
	if serveCached(w, c, key) {
		return
	}
	ctx, cancel := s.queryCtx(r)
	defer cancel()
	ms, err := s.DB.PhraseSearchContext(ctx, req.Phrase)
	if err != nil {
		evalError(w, err)
		return
	}
	count := len(ms)
	ms = ms[:min(count, s.maxResults())]
	sc := getReply()
	defer putReply(sc)
	for _, m := range ms {
		sc.nodes = append(sc.nodes, exec.ScoredNode{Doc: m.Doc, Ord: m.Node})
	}
	// A match is a text node, so its label is its text.
	sc.labels = s.DB.Render(sc.labels, sc.nodes)
	sc.enc.phraseReply(count, ms, sc.labels)
	sc.enc.send(w)
	storeReply(c, key, &sc.enc)
}
