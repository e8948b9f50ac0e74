// Package fleet is the replicated, self-healing serving tier: it fronts
// N identical backend replicas (each a sharded *shard.DB loaded with the
// same corpus in the same order) and makes the query surface degrade
// gracefully instead of failing when a replica stalls or dies.
//
// Three mechanisms compose:
//
//   - Health-checked routing. Every replica carries a circuit breaker fed
//     by its request outcomes, classified through the exec error taxonomy:
//     storage faults (storage.ErrInjectedFault), recovered panics
//     (db.ErrPanic/shard.ErrPanic), and attempt-level deadline overruns
//     count against the replica; client-caused errors (parse failures,
//     resource-budget exhaustion, the caller's own cancellation) do not.
//     A replica whose windowed failure rate crosses the threshold is
//     ejected (breaker open), probed after a cool-down (half-open), and
//     re-admitted automatically once probes succeed (closed).
//
//   - Retries and hedges. Replica faults are retried on a healthy twin
//     under a per-request retry budget with jittered exponential backoff.
//     Independently, when the first replica's response exceeds an adaptive
//     hedge delay — the 95th percentile of its own live latency
//     histogram, floored by Config.HedgeAfter — a hedge request fires to a
//     second replica; the first response wins and the loser is cancelled
//     through its context, which exec.Guard turns into a cooperative abort
//     within one check interval.
//
//   - Admission control (see Admission): per-client token buckets plus a
//     global concurrency gate with deadline-aware queue shedding, applied
//     by the HTTP layer before requests reach the fleet.
//
// The fleet implements the same surface as its replicas (server.Backend
// and the Ingestor mutation interface), so internal/server fronts a
// *Fleet exactly as it fronts a single database.
package fleet

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/db"
	"repro/internal/exec"
	"repro/internal/metrics"
	"repro/internal/rescache"
	"repro/internal/storage"
	"repro/internal/xmltree"
	"repro/internal/xq"
)

// Backend is the replica surface the fleet routes over. server.Backend is
// an alias of it: *shard.DB satisfies it, and so does *Fleet itself, so
// the server fronts either.
type Backend interface {
	Stats() db.Stats
	DocumentCount() int
	MetricsRegistry() *metrics.Registry
	QueryContext(ctx context.Context, src string) ([]xq.Result, error)
	Explain(src string) (string, error)
	TermSearchContext(ctx context.Context, terms []string, opts db.TermSearchOptions) ([]exec.ScoredNode, error)
	PhraseSearchContext(ctx context.Context, phrase []string) ([]exec.PhraseMatch, error)
	Materialize(doc storage.DocID, ord int32) *xmltree.Node
	NameOf(n exec.ScoredNode) string
	// Render appends each node's label to dst and returns the extended
	// slice: an element's tag name, or a text node's text ("" for a node
	// the backend does not hold). One call resolves a whole reply.
	Render(dst []string, nodes []exec.ScoredNode) []string

	// The reply cache's surface (DESIGN.md §13). The server keys encoded
	// replies by a token it reads here before dispatch.

	// ResultCache returns the cache replies are stored in, or nil when
	// caching is off.
	ResultCache() *rescache.Cache
	// TermsToken returns the token a /terms or /phrase reply over terms
	// is keyed by; it moves whenever a write touches a document holding
	// one of the terms. ok=false while no stable token exists.
	TermsToken(terms []string) (uint64, bool)
	// CacheToken returns the token a /query reply is keyed by; it moves
	// on every mutation. ok=false while no stable token exists.
	CacheToken() (uint64, bool)
	// Limits returns the effective per-query resource budget, which
	// enters every key.
	Limits() exec.Limits
}

// Ingestor is the replica mutation surface (server.Ingestor aliases it).
type Ingestor interface {
	Add(name, src string) error
	Update(name, src string) error
	Delete(name string) error
	Generation() uint64
}

// ErrNoReplicas reports that no replica was available to serve a request
// (the fleet is empty — a construction error, not a runtime state: with
// every breaker open the fleet still routes as a last resort).
var ErrNoReplicas = errors.New("fleet: no replicas configured")

// Config tunes the fleet. The zero value selects the defaults noted per
// field.
type Config struct {
	// HedgeAfter is the hedge-delay floor and cold-start fallback: a hedge
	// fires to a second replica when the first has been silent this long
	// and the latency histograms cannot yet vote (default 25ms; negative
	// disables hedging).
	HedgeAfter time.Duration
	// MaxRetries bounds the sequential re-attempts after a replica fault
	// (default 2; the hedge does not consume retry budget).
	MaxRetries int
	// Backoff is the jittered exponential backoff schedule between
	// retries.
	Backoff Backoff
	// Breaker tunes every replica's circuit breaker.
	Breaker BreakerConfig
	// Metrics receives the fleet's own instrumentation (default
	// metrics.Default).
	Metrics *metrics.Registry
	// PanicErrors are additional sentinels (beyond db.ErrPanic and
	// storage.ErrInjectedFault) classified as hard replica faults —
	// retried on a twin and counted against the breaker. A sharded
	// backend adds shard.ErrPanic here; fleet itself cannot import the
	// shard package (shard's tests exercise the server, which fronts a
	// fleet, and Go rejects the resulting test-only cycle).
	PanicErrors []error
}

func (c Config) withDefaults() Config {
	if c.HedgeAfter == 0 {
		c.HedgeAfter = 25 * time.Millisecond
	}
	if c.MaxRetries < 0 {
		c.MaxRetries = 0
	} else if c.MaxRetries == 0 {
		c.MaxRetries = 2
	}
	if c.Metrics == nil {
		c.Metrics = metrics.Default
	}
	return c
}

// replica is one backend plus its health machinery.
type replica struct {
	id       int
	backend  Backend
	breaker  *Breaker
	latency  *metrics.Histogram
	inflight atomic.Int64
}

// Fleet fronts N replicas. It must be constructed over fully-loaded,
// identical replicas: the corpus (and its load order, hence document
// numbering) must match across them, so any replica can serve any
// request and Materialize/Render agree with query results regardless of
// which replica produced them.
type Fleet struct {
	cfg      Config
	replicas []*replica
	rr       atomic.Uint64 // round-robin cursor

	// ingestMu serializes replicated mutations fleet-wide: every replica
	// observes Add/Update/Delete in one total order, so deterministic
	// document-id allocation stays in lockstep across replicas even under
	// concurrent ingest requests.
	ingestMu sync.Mutex

	// degraded latches when a partial mutation may have left the replicas
	// non-identical and the damage could not be repaired; Ready() then
	// reports not-ready so operators re-sync instead of serving silently
	// inconsistent Materialize/Render answers.
	degraded       atomic.Bool
	degradedMu     sync.Mutex
	degradedReason string
}

// New builds a fleet over the given replicas.
func New(cfg Config, backends ...Backend) (*Fleet, error) {
	if len(backends) == 0 {
		return nil, ErrNoReplicas
	}
	cfg = cfg.withDefaults()
	f := &Fleet{cfg: cfg}
	for i, b := range backends {
		rep := &replica{
			id:      i,
			backend: b,
			latency: cfg.Metrics.Histogram(fmt.Sprintf(`tix_fleet_replica_seconds{replica="%d"}`, i)),
		}
		rep.breaker = NewBreaker(cfg.Breaker)
		rep.breaker.onTransition = f.observeTransition(i)
		cfg.Metrics.Gauge(fmt.Sprintf(`tix_fleet_breaker_state{replica="%d"}`, i)).Set(int64(StateClosed))
		f.replicas = append(f.replicas, rep)
	}
	cfg.Metrics.Gauge("tix_fleet_degraded").Set(0)
	return f, nil
}

// observeTransition publishes one replica's breaker state changes.
func (f *Fleet) observeTransition(id int) func(from, to BreakerState) {
	reg := f.cfg.Metrics
	state := reg.Gauge(fmt.Sprintf(`tix_fleet_breaker_state{replica="%d"}`, id))
	return func(from, to BreakerState) {
		state.Set(int64(to))
		reg.Counter(fmt.Sprintf(`tix_fleet_breaker_transitions_total{replica="%d",to="%s"}`, id, to)).Inc()
	}
}

// Size returns the number of replicas.
func (f *Fleet) Size() int { return len(f.replicas) }

// BreakerState returns replica i's current breaker state.
func (f *Fleet) BreakerState(i int) BreakerState { return f.replicas[i].breaker.State() }

// HealthyReplicas counts replicas whose breaker admits traffic (closed or
// half-open).
func (f *Fleet) HealthyReplicas() int {
	n := 0
	for _, r := range f.replicas {
		if r.breaker.State() != StateOpen {
			n++
		}
	}
	return n
}

// Ready implements the server's readiness probe: the fleet serves once at
// least one replica is healthy and the replicas are not known to have
// diverged.
func (f *Fleet) Ready() (bool, string) {
	if bad, reason := f.Degraded(); bad {
		return false, "replicas diverged: " + reason
	}
	if h := f.HealthyReplicas(); h == 0 {
		return false, fmt.Sprintf("no healthy replicas (0/%d breakers admit traffic)", len(f.replicas))
	}
	return true, ""
}

// Degraded reports whether a partial replicated mutation left the
// replicas potentially non-identical (and irreparable), with the first
// recorded reason. A degraded fleet keeps serving best-effort but
// reports not-ready, so orchestration drains it for a re-sync.
func (f *Fleet) Degraded() (bool, string) {
	if !f.degraded.Load() {
		return false, ""
	}
	f.degradedMu.Lock()
	defer f.degradedMu.Unlock()
	return true, f.degradedReason
}

// markDegraded latches the degraded state, keeping the first reason
// (later failures are usually consequences of the first divergence).
func (f *Fleet) markDegraded(format string, args ...any) {
	f.degradedMu.Lock()
	if f.degradedReason == "" {
		f.degradedReason = fmt.Sprintf(format, args...)
	}
	f.degradedMu.Unlock()
	f.degraded.Store(true)
	f.cfg.Metrics.Gauge("tix_fleet_degraded").Set(1)
}

// MetricsRegistry returns the fleet's registry (shared with the HTTP
// middleware when the server fronts the fleet).
func (f *Fleet) MetricsRegistry() *metrics.Registry { return f.cfg.Metrics }

// pick selects the next replica for an attempt, round-robin from a
// shared cursor so concurrent requests spread across the fleet. First
// choice: an untried replica the breaker admits (Allow reserves a probe
// slot in half-open, released again when the attempt's outcome is
// recorded; such picks return reserved=true). Fallback: any untried
// replica even if its breaker refused the attempt — when the whole fleet
// looks dead, trying beats certain failure (availability over ejection).
// Fallback picks return reserved=false: no probe slot was taken, so the
// attempt's outcome must bypass probe bookkeeping (see recordOutcome).
// Returns nil only when tried covers the fleet.
func (f *Fleet) pick(tried map[int]bool) (rep *replica, reserved bool) {
	start := int(f.rr.Add(1))
	n := len(f.replicas)
	for i := 0; i < n; i++ {
		r := f.replicas[(start+i)%n]
		if !tried[r.id] && r.breaker.Allow() {
			return r, true
		}
	}
	for i := 0; i < n; i++ {
		r := f.replicas[(start+i)%n]
		if !tried[r.id] {
			return r, false
		}
	}
	return nil, false
}

// The adaptive hedge delay is the hedgeQuantile of the primary replica's
// live latency histogram once it holds hedgeMinSamples observations.
const hedgeQuantile, hedgeMinSamples = 0.95, 20

// hedgeDelay computes the adaptive hedge delay for a primary replica:
// hedgeQuantile of its live latency histogram once enough samples exist,
// floored by HedgeAfter; before that, HedgeAfter alone.
func (f *Fleet) hedgeDelay(rep *replica) time.Duration {
	d := f.cfg.HedgeAfter
	if rep.latency.Count() >= hedgeMinSamples {
		if q := rep.latency.Quantile(hedgeQuantile); q > 0 {
			if qd := time.Duration(q * float64(time.Second)); qd > d {
				d = qd
			}
		}
	}
	return d
}

// hardFault reports errors that indict the replica's storage or engine
// regardless of timing: injected storage faults and recovered panics
// (db.ErrPanic plus any configured PanicErrors sentinels).
func (f *Fleet) hardFault(err error) bool {
	if errors.Is(err, storage.ErrInjectedFault) || errors.Is(err, db.ErrPanic) {
		return true
	}
	for _, sentinel := range f.cfg.PanicErrors {
		if errors.Is(err, sentinel) {
			return true
		}
	}
	return false
}

// replicaFault reports whether err indicts the replica (retry on a twin,
// count against its breaker) rather than the request. ctx is the
// caller's context: its own cancellation or deadline is never the
// replica's fault.
func (f *Fleet) replicaFault(ctx context.Context, err error) bool {
	switch {
	case err == nil:
		return false
	case ctx.Err() != nil:
		return false
	case f.hardFault(err):
		return true
	case errors.Is(err, exec.ErrDeadlineExceeded), errors.Is(err, exec.ErrCanceled):
		// The caller's context is alive, so this deadline/cancel came from
		// the replica's own per-query budget: the replica was too slow.
		return true
	}
	// Parse errors, resource-budget exhaustion, validation: deterministic
	// client-visible outcomes a twin would reproduce.
	return false
}

// outcome is one attempt's result.
type outcome[T any] struct {
	v        T
	err      error
	rep      *replica
	hedged   bool
	reserved bool // Allow admitted the attempt (probe slot may be held)
	elapsed  time.Duration
}

// recordOutcome feeds one attempt's result into its replica's health
// state: successes and faults are evidence, everything else (client-class
// errors, our own loser cancellation) only releases the probe slot Allow
// may have reserved. Desperation attempts (reserved=false) never passed
// Allow, so they bypass probe bookkeeping entirely — releasing a slot
// they never took would let a half-open breaker admit more concurrent
// probes than configured, and their successes must not count toward
// closing it. fault is pre-classified by the caller because the
// classification differs between live outcomes (replicaFault, which sees
// the caller's context) and drained losers (hardFault only).
func recordOutcome[T any](out outcome[T], fault bool) {
	if !out.reserved {
		switch {
		case out.err == nil:
			out.rep.breaker.RecordStray(false)
			out.rep.latency.Observe(out.elapsed.Seconds())
		case fault:
			out.rep.breaker.RecordStray(true)
		}
		return
	}
	switch {
	case out.err == nil:
		out.rep.breaker.Record(false)
		out.rep.latency.Observe(out.elapsed.Seconds())
	case fault:
		out.rep.breaker.Record(true)
	default:
		out.rep.breaker.ReleaseProbe()
	}
}

// call routes one idempotent read through the fleet: primary attempt on
// the picked replica, an optional hedge when the adaptive delay expires,
// sequential retries with jittered backoff on replica faults, first
// success wins with loser cancellation. Methods cannot be generic, so
// this is a free function over the fleet.
func call[T any](f *Fleet, ctx context.Context, op string, fn func(context.Context, Backend) (T, error)) (T, error) {
	var zero T
	reg := f.cfg.Metrics
	lbl := `{op="` + op + `"}`
	reg.Counter("tix_fleet_requests_total" + lbl).Inc()
	if err := ctx.Err(); err != nil {
		return zero, ctxError(err)
	}

	// Buffered for every possible attempt so losers never block on send.
	resc := make(chan outcome[T], len(f.replicas)+f.cfg.MaxRetries+2)
	tried := make(map[int]bool, len(f.replicas))
	var cancels []context.CancelFunc
	inflight := 0
	defer func() {
		// Cancel the losers, then drain their outcomes off-path so every
		// breaker probe slot is released and genuine faults discovered by
		// a loser still count. Loser cancellation errors carry no health
		// evidence (the parent context may be alive, so replicaFault would
		// misread them); only hard faults do.
		for _, c := range cancels {
			c()
		}
		if inflight > 0 {
			go func(n int) {
				for i := 0; i < n; i++ {
					out := <-resc
					recordOutcome(out, f.hardFault(out.err))
				}
			}(inflight)
		}
	}()

	launch := func(rep *replica, hedged, reserved bool) {
		tried[rep.id] = true
		actx, cancel := context.WithCancel(ctx)
		cancels = append(cancels, cancel)
		rep.inflight.Add(1)
		inflight++
		go func() {
			start := time.Now()
			v, err := fn(actx, rep.backend)
			rep.inflight.Add(-1)
			resc <- outcome[T]{v: v, err: err, rep: rep, hedged: hedged, reserved: reserved, elapsed: time.Since(start)}
		}()
	}

	primary, reserved := f.pick(tried)
	if primary == nil {
		return zero, ErrNoReplicas
	}
	launch(primary, false, reserved)

	var hedgeC <-chan time.Time
	if f.cfg.HedgeAfter >= 0 && len(f.replicas) > 1 {
		t := time.NewTimer(f.hedgeDelay(primary))
		defer t.Stop()
		hedgeC = t.C
	}

	retries := 0
	var lastErr error
	for {
		select {
		case out := <-resc:
			inflight--
			fault := f.replicaFault(ctx, out.err)
			recordOutcome(out, fault)
			if out.err == nil {
				if out.hedged {
					reg.Counter("tix_fleet_hedge_wins_total" + lbl).Inc()
				}
				return out.v, nil
			}
			reg.Counter(fmt.Sprintf(`tix_fleet_replica_errors_total{replica="%d"}`, out.rep.id)).Inc()
			lastErr = out.err
			if !fault {
				// Deterministic client-visible error (parse failure,
				// resource budget, the caller's own cancellation); a twin
				// would answer identically, so return it now.
				return zero, out.err
			}
			if inflight > 0 {
				// A hedge is still racing; let it finish before retrying.
				continue
			}
			if retries >= f.cfg.MaxRetries {
				return zero, lastErr
			}
			if err := f.cfg.Backoff.Wait(ctx, retries); err != nil {
				return zero, ctxError(err)
			}
			retries++
			reg.Counter("tix_fleet_retries_total" + lbl).Inc()
			next, res := f.pick(tried)
			if next == nil {
				// Every replica has been tried this request; clear the
				// history so the retry can re-probe the least-bad one.
				clear(tried)
				next, res = f.pick(tried)
			}
			if next == nil {
				return zero, lastErr
			}
			launch(next, false, res)
		case <-hedgeC:
			hedgeC = nil
			if sec, res := f.pick(tried); sec != nil {
				reg.Counter("tix_fleet_hedges_total" + lbl).Inc()
				launch(sec, true, res)
			}
		case <-ctx.Done():
			return zero, ctxError(ctx.Err())
		}
	}
}

// ctxError maps a context error to the exec taxonomy the server already
// classifies (408 timeout / 503 canceled).
func ctxError(err error) error {
	if errors.Is(err, context.DeadlineExceeded) {
		return exec.ErrDeadlineExceeded
	}
	if errors.Is(err, context.Canceled) {
		return exec.ErrCanceled
	}
	return err
}

// ---- Backend surface -------------------------------------------------

// QueryContext evaluates an extended-XQuery string on a healthy replica,
// with retry and hedging.
func (f *Fleet) QueryContext(ctx context.Context, src string) ([]xq.Result, error) {
	return call(f, ctx, "query", func(ctx context.Context, b Backend) ([]xq.Result, error) {
		return b.QueryContext(ctx, src)
	})
}

// TermSearchContext runs a term search on a healthy replica, with retry
// and hedging.
func (f *Fleet) TermSearchContext(ctx context.Context, terms []string, opts db.TermSearchOptions) ([]exec.ScoredNode, error) {
	return call(f, ctx, "terms", func(ctx context.Context, b Backend) ([]exec.ScoredNode, error) {
		return b.TermSearchContext(ctx, terms, opts)
	})
}

// PhraseSearchContext runs a phrase search on a healthy replica, with
// retry and hedging.
func (f *Fleet) PhraseSearchContext(ctx context.Context, phrase []string) ([]exec.PhraseMatch, error) {
	return call(f, ctx, "phrase", func(ctx context.Context, b Backend) ([]exec.PhraseMatch, error) {
		return b.PhraseSearchContext(ctx, phrase)
	})
}

// Explain renders the query plan from any admitted replica (plans are
// deterministic across identical replicas).
func (f *Fleet) Explain(src string) (string, error) {
	return f.anyReplica().Explain(src)
}

// Stats reports the statistics of one replica (replicas are identical by
// construction).
func (f *Fleet) Stats() db.Stats { return f.anyReplica().Stats() }

// DocumentCount reports one replica's live-document count.
func (f *Fleet) DocumentCount() int { return f.anyReplica().DocumentCount() }

// Materialize resolves a result element on an admitted replica. Document
// numbering is identical across replicas, so any replica's answer is
// authoritative.
func (f *Fleet) Materialize(doc storage.DocID, ord int32) *xmltree.Node {
	return f.anyReplica().Materialize(doc, ord)
}

// NameOf resolves a scored node's element tag on an admitted replica
// (see Render).
func (f *Fleet) NameOf(n exec.ScoredNode) string {
	return f.Render(nil, []exec.ScoredNode{n})[0]
}

// Render resolves a whole reply's labels on one admitted replica.
func (f *Fleet) Render(dst []string, nodes []exec.ScoredNode) []string {
	return f.anyReplica().Render(dst, nodes)
}

// ResultCache returns the first replica's cache: the fleet spends one
// cache budget, not one per replica.
func (f *Fleet) ResultCache() *rescache.Cache { return f.replicas[0].backend.ResultCache() }

// TermsToken sums the replicas' tokens for terms, ok only when every
// replica's is. The sum is sound because a write is acknowledged only
// after every replica applied it (DESIGN.md §13).
func (f *Fleet) TermsToken(terms []string) (uint64, bool) {
	return f.sumTokens(func(b Backend) (uint64, bool) { return b.TermsToken(terms) })
}

// CacheToken sums the replicas' /query tokens, ok only when every
// replica's is.
func (f *Fleet) CacheToken() (uint64, bool) {
	return f.sumTokens(Backend.CacheToken)
}

func (f *Fleet) sumTokens(token func(Backend) (uint64, bool)) (uint64, bool) {
	var sum uint64
	for _, r := range f.replicas {
		g, ok := token(r.backend)
		if !ok {
			return 0, false
		}
		sum += g
	}
	return sum, true
}

// Limits returns the first replica's budget (replicas are configured
// alike).
func (f *Fleet) Limits() exec.Limits { return f.replicas[0].backend.Limits() }

// anyReplica returns a closed-breaker replica for cheap deterministic
// reads, falling back to the round-robin choice when none is closed.
// State() is consulted without Allow(): these reads gather no health
// evidence and must not consume half-open probe slots.
func (f *Fleet) anyReplica() Backend {
	start := int(f.rr.Add(1))
	for i := 0; i < len(f.replicas); i++ {
		r := f.replicas[(start+i)%len(f.replicas)]
		if r.breaker.State() == StateClosed {
			return r.backend
		}
	}
	return f.replicas[start%len(f.replicas)].backend
}

// CompactionBacklog sums the replicas' outstanding compaction work, for
// the readiness probe (0 when replicas don't expose it).
func (f *Fleet) CompactionBacklog() int {
	var n int
	for _, r := range f.replicas {
		if cb, ok := r.backend.(interface{ CompactionBacklog() int }); ok {
			n += cb.CompactionBacklog()
		}
	}
	return n
}

// ---- Ingestor surface ------------------------------------------------
//
// Mutations are replicated to every replica in replica order, serialized
// by a fleet-wide mutex so all replicas observe mutations in one total
// order (each backend has only its own lock; without the fleet-level
// order, two concurrent Adds could apply in different orders on
// different replicas and allocate different document ids). The replicas
// apply the same deterministic operation, so success everywhere keeps
// them identical.
//
// Partial failures threaten the numbering invariant directly: document
// ids are allocated sequentially and never reused, and a replica that
// applied (or tombstoned a half-indexed document) consumed an id that
// the replicas the loop never reached did not. After any partial
// mutation the fleet re-aligns the allocation cursors by burning
// placeholder ids on the lagging replicas (see realignLocked); damage
// that cannot be repaired — a failed rollback, content drift from a
// partially-applied Update/Delete, a replica that hides its allocation
// cursor — latches the degraded state instead, so Ready() stops
// advertising a fleet whose replicas may disagree.

// idAllocator is the optional replica surface the numbering repair
// needs: AllocatedDocIDs exposes the document-id allocation cursor (ids
// ever handed out, live or tombstoned) and BurnDocID consumes one id
// without adding a document. *shard.DB implements it.
type idAllocator interface {
	AllocatedDocIDs() int
	BurnDocID() error
}

// ingestorOf asserts one replica's mutation surface.
func (f *Fleet) ingestorOf(i int) (Ingestor, error) {
	ing, ok := f.replicas[i].backend.(Ingestor)
	if !ok {
		return nil, fmt.Errorf("fleet: replica %d does not support ingestion", i)
	}
	return ing, nil
}

// realignLocked re-equalizes the replicas' document-id allocation
// cursors after a partially-applied mutation: replicas that consumed an
// id for the failed operation sit ahead of replicas the loop never
// reached, and every subsequent Add would allocate differently per
// replica — queries score on one replica while Materialize/Render
// resolve on another, so diverged numbering silently returns the wrong
// document. Burning placeholder ids on the laggards restores identical
// numbering. A replica that does not expose its cursor (or whose burn
// fails) leaves the divergence unverifiable, so the fleet degrades.
// Caller holds ingestMu.
func (f *Fleet) realignLocked() {
	allocs := make([]idAllocator, len(f.replicas))
	cursors := make([]int, len(f.replicas))
	maxCur := -1
	for i, r := range f.replicas {
		a, ok := r.backend.(idAllocator)
		if !ok {
			f.markDegraded("replica %d does not expose id allocation; numbering cannot be verified", i)
			return
		}
		allocs[i] = a
		cursors[i] = a.AllocatedDocIDs()
		if cursors[i] > maxCur {
			maxCur = cursors[i]
		}
	}
	for i, n := range cursors {
		for ; n < maxCur; n++ {
			if err := allocs[i].BurnDocID(); err != nil {
				f.markDegraded("id realignment failed on replica %d: %v", i, err)
				return
			}
			f.cfg.Metrics.Counter("tix_fleet_id_realign_total").Inc()
		}
	}
}

// Add replicates an Add to every replica, rolling back on mid-fleet
// failure so no replica keeps a document the client was told failed, and
// re-aligning id allocation so the failure leaves the numbering
// invariant intact.
func (f *Fleet) Add(name, src string) error {
	f.ingestMu.Lock()
	defer f.ingestMu.Unlock()
	for i := range f.replicas {
		ing, err := f.ingestorOf(i)
		if err == nil {
			err = ing.Add(name, src)
		}
		if err != nil {
			for j := i - 1; j >= 0; j-- {
				prev, perr := f.ingestorOf(j)
				if perr == nil {
					perr = prev.Delete(name)
				}
				if perr != nil {
					f.markDegraded("rollback of add %q failed on replica %d: %v", name, j, perr)
				}
			}
			f.realignLocked()
			return err
		}
	}
	return nil
}

// Update replicates a document replacement to every replica. A partial
// application cannot be rolled back (the old version is already gone on
// the replicas that applied), so beyond re-aligning id allocation the
// fleet degrades: the replicas now disagree on the document's content.
func (f *Fleet) Update(name, src string) error {
	f.ingestMu.Lock()
	defer f.ingestMu.Unlock()
	var first error
	failures := 0
	for i := range f.replicas {
		ing, err := f.ingestorOf(i)
		if err == nil {
			err = ing.Update(name, src)
		}
		if err != nil {
			failures++
			if first == nil {
				first = err
			}
		}
	}
	if failures > 0 && failures < len(f.replicas) {
		f.markDegraded("update %q applied on %d of %d replicas: %v",
			name, len(f.replicas)-failures, len(f.replicas), first)
		f.realignLocked()
	}
	return first
}

// Delete replicates a document deletion to every replica. A partial
// application leaves the document live on some replicas, so the fleet
// degrades (deletes allocate no ids; numbering needs no repair).
func (f *Fleet) Delete(name string) error {
	f.ingestMu.Lock()
	defer f.ingestMu.Unlock()
	var first error
	failures := 0
	for i := range f.replicas {
		ing, err := f.ingestorOf(i)
		if err == nil {
			err = ing.Delete(name)
		}
		if err != nil {
			failures++
			if first == nil {
				first = err
			}
		}
	}
	if failures > 0 && failures < len(f.replicas) {
		f.markDegraded("delete %q applied on %d of %d replicas: %v",
			name, len(f.replicas)-failures, len(f.replicas), first)
	}
	return first
}

// Generation returns the maximum replica generation — a staleness token
// that changes whenever any replica applies a mutation.
func (f *Fleet) Generation() uint64 {
	var g uint64
	for i := range f.replicas {
		if ing, err := f.ingestorOf(i); err == nil {
			if ig := ing.Generation(); ig > g {
				g = ig
			}
		}
	}
	return g
}
