package fleet

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/metrics"
)

// Admission-control sentinels. The server maps them to typed JSON errors:
// ErrRateLimited → 429 with code "rate_limited", ErrOverloaded → 503 with
// code "overloaded"; both carry a Retry-After hint and retryable=true so
// clients can implement correct backoff.
var (
	// ErrRateLimited reports that the client exhausted its token bucket.
	ErrRateLimited = errors.New("fleet: client rate limit exceeded")
	// ErrOverloaded reports that the global concurrency gate is full and
	// the request was shed (queue full, or the predicted queue wait would
	// exceed the request's deadline).
	ErrOverloaded = errors.New("fleet: server overloaded, request shed")
)

// AdmissionError is the concrete error for a rejected request. It unwraps
// to ErrRateLimited or ErrOverloaded.
type AdmissionError struct {
	Sentinel error
	// RetryAfter is the suggested wait before retrying (the token-bucket
	// refill time, or the predicted drain time of the concurrency gate).
	RetryAfter time.Duration
	Reason     string
}

// Error implements error.
func (e *AdmissionError) Error() string {
	return fmt.Sprintf("%v: %s (retry after %s)", e.Sentinel, e.Reason, e.RetryAfter.Round(time.Millisecond))
}

// Unwrap makes errors.Is against the sentinel true.
func (e *AdmissionError) Unwrap() error { return e.Sentinel }

// AdmissionConfig tunes the admission controller. Zero-valued limits are
// disabled, so the zero config admits everything.
type AdmissionConfig struct {
	// RatePerSec is each client's sustained request rate (token-bucket
	// refill; 0 disables per-client rate limiting).
	RatePerSec float64
	// Burst is the token-bucket capacity (default max(1, ceil(RatePerSec))).
	Burst int
	// MaxInflight is the global concurrent-request gate (0 disables).
	MaxInflight int
	// MaxQueue bounds how many requests may wait for a gate slot before
	// further arrivals are shed outright (default 4×MaxInflight).
	MaxQueue int
	// MaxClients bounds the client bucket table; when full, the stalest
	// bucket is evicted (default 4096).
	MaxClients int
	// Metrics receives the admission counters and gauges (default
	// metrics.Default).
	Metrics *metrics.Registry
}

func (c AdmissionConfig) withDefaults() AdmissionConfig {
	if c.Burst <= 0 {
		c.Burst = int(math.Ceil(c.RatePerSec))
		if c.Burst < 1 {
			c.Burst = 1
		}
	}
	if c.MaxQueue <= 0 {
		c.MaxQueue = 4 * c.MaxInflight
	}
	if c.MaxClients <= 0 {
		c.MaxClients = 4096
	}
	if c.Metrics == nil {
		c.Metrics = metrics.Default
	}
	return c
}

// bucket is one client's token bucket.
type bucket struct {
	tokens float64
	last   time.Time
}

// Admission is the serving tier's admission controller: a per-client
// token bucket in front of a global concurrency gate. Requests that pass
// both run; requests that fail either are rejected immediately with a
// typed, retryable error — the tier sheds load instead of queueing
// unboundedly, so overload degrades to fast 429/503 responses rather
// than timeouts for everyone.
//
// The gate is deadline-aware: when no slot is free, the controller
// predicts the queue wait from an EWMA of recent service times and sheds
// the request up front if the prediction exceeds the request's context
// deadline — a request that would time out in the queue never occupies
// queue space.
type Admission struct {
	cfg AdmissionConfig

	mu      sync.Mutex
	buckets map[string]*bucket

	sem    chan struct{} // nil when MaxInflight is 0
	queued atomic.Int64

	// ewmaServiceBits holds the float64 bits of the exponentially-weighted
	// moving average service time in seconds, updated on release.
	ewmaServiceBits atomic.Uint64
}

// NewAdmission returns an admission controller for cfg.
func NewAdmission(cfg AdmissionConfig) *Admission {
	cfg = cfg.withDefaults()
	a := &Admission{cfg: cfg, buckets: map[string]*bucket{}}
	if cfg.MaxInflight > 0 {
		a.sem = make(chan struct{}, cfg.MaxInflight)
	}
	return a
}

// reg returns the metrics registry.
func (a *Admission) reg() *metrics.Registry { return a.cfg.Metrics }

// takeToken charges one request against the client's bucket, returning
// the wait until a token is available when the bucket is empty.
func (a *Admission) takeToken(client string, now time.Time) (time.Duration, bool) {
	if a.cfg.RatePerSec <= 0 {
		return 0, true
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	b := a.buckets[client]
	if b == nil {
		if len(a.buckets) >= a.cfg.MaxClients {
			a.evictStalest()
		}
		b = &bucket{tokens: float64(a.cfg.Burst), last: now}
		a.buckets[client] = b
	}
	b.tokens += now.Sub(b.last).Seconds() * a.cfg.RatePerSec
	if max := float64(a.cfg.Burst); b.tokens > max {
		b.tokens = max
	}
	b.last = now
	if b.tokens < 1 {
		wait := time.Duration((1 - b.tokens) / a.cfg.RatePerSec * float64(time.Second))
		return wait, false
	}
	b.tokens--
	return 0, true
}

// refundToken returns one token to the client's bucket: a request shed
// at the concurrency gate never used the admission its token paid for,
// so charging it would double-penalize clients during overload.
func (a *Admission) refundToken(client string) {
	if a.cfg.RatePerSec <= 0 {
		return
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if b := a.buckets[client]; b != nil {
		if b.tokens++; b.tokens > float64(a.cfg.Burst) {
			b.tokens = float64(a.cfg.Burst)
		}
	}
}

// evictStalest drops the least-recently-used bucket. Caller holds mu.
func (a *Admission) evictStalest() {
	var stalest string
	var oldest time.Time
	for c, b := range a.buckets {
		if stalest == "" || b.last.Before(oldest) {
			stalest, oldest = c, b.last
		}
	}
	delete(a.buckets, stalest)
}

// ewmaService returns the moving-average service time (0 before any
// sample).
func (a *Admission) ewmaService() float64 {
	return math.Float64frombits(a.ewmaServiceBits.Load())
}

// noteService folds one observed service duration into the EWMA.
func (a *Admission) noteService(d time.Duration) {
	const alpha = 0.2
	s := d.Seconds()
	for {
		old := a.ewmaServiceBits.Load()
		prev := math.Float64frombits(old)
		next := s
		if prev > 0 {
			next = (1-alpha)*prev + alpha*s
		}
		if a.ewmaServiceBits.CompareAndSwap(old, math.Float64bits(next)) {
			return
		}
	}
}

// predictWait estimates how long a newly-queued request would wait for a
// gate slot given the queue length including itself: the queue drains
// MaxInflight at a time, each batch taking one average service time.
func (a *Admission) predictWait(queue int64) time.Duration {
	ewma := a.ewmaService()
	if ewma <= 0 || queue < 1 {
		return 0
	}
	batches := float64(queue) / float64(a.cfg.MaxInflight)
	return time.Duration(math.Ceil(batches) * ewma * float64(time.Second))
}

// Admit runs a request through admission control. On success it returns
// a release closure the caller must invoke exactly once when the request
// finishes. On rejection it returns an *AdmissionError unwrapping to
// ErrRateLimited or ErrOverloaded (or the context's own error when the
// client gave up while queued).
func (a *Admission) Admit(ctx context.Context, client string) (release func(), err error) {
	reg := a.reg()
	if wait, ok := a.takeToken(client, time.Now()); !ok {
		reg.Counter("tix_admission_rate_limited_total").Inc()
		return nil, &AdmissionError{
			Sentinel:   ErrRateLimited,
			RetryAfter: wait,
			Reason:     fmt.Sprintf("client %q exceeded %g requests/sec", client, a.cfg.RatePerSec),
		}
	}
	if a.sem == nil {
		return func() {}, nil
	}

	start := time.Now()
	acquired := func() func() {
		reg.Gauge("tix_admission_inflight").Add(1)
		return func() {
			<-a.sem
			a.noteService(time.Since(start))
			reg.Gauge("tix_admission_inflight").Add(-1)
		}
	}

	select {
	case a.sem <- struct{}{}:
		return acquired(), nil
	default:
	}

	// No free slot: claim a queue slot with a compare-and-swap that never
	// takes the counter past MaxQueue, so concurrent arrivals cannot
	// overshoot it even transiently. A shed rejection releases any slot it
	// claimed and refunds the token the request never used.
	shed := func(reserved bool, retryAfter time.Duration, reason string) (func(), error) {
		if reserved {
			a.queued.Add(-1)
		}
		a.refundToken(client)
		reg.Counter("tix_admission_shed_total").Inc()
		return nil, &AdmissionError{Sentinel: ErrOverloaded, RetryAfter: retryAfter, Reason: reason}
	}
	q, reserved := a.reserveQueue()
	predicted := a.predictWait(q)
	if !reserved {
		return shed(false, maxDuration(predicted, 50*time.Millisecond),
			fmt.Sprintf("admission queue full (%d waiting)", a.cfg.MaxQueue))
	}
	// Deadline-aware shedding: a request whose predicted queue wait cannot
	// fit inside its own deadline would only time out in line.
	if dl, ok := ctx.Deadline(); ok && predicted > 0 && time.Now().Add(predicted).After(dl) {
		return shed(true, predicted, fmt.Sprintf("predicted queue wait %s exceeds request deadline",
			predicted.Round(time.Millisecond)))
	}

	reg.Gauge("tix_admission_queued").Add(1)
	defer func() {
		a.queued.Add(-1)
		reg.Gauge("tix_admission_queued").Add(-1)
		reg.Histogram("tix_admission_queue_wait_seconds").Observe(time.Since(start).Seconds())
	}()
	select {
	case a.sem <- struct{}{}:
		return acquired(), nil
	case <-ctx.Done():
		reg.Counter("tix_admission_abandoned_total").Inc()
		return nil, ctx.Err()
	}
}

// reserveQueue claims one queue slot unless MaxQueue are taken already. It
// returns the queue length counting the caller, so a full queue reports
// MaxQueue+1 without the counter ever holding that value.
func (a *Admission) reserveQueue() (int64, bool) {
	for {
		q := a.queued.Load()
		if q >= int64(a.cfg.MaxQueue) {
			return q + 1, false
		}
		if a.queued.CompareAndSwap(q, q+1) {
			return q + 1, true
		}
	}
}

func maxDuration(a, b time.Duration) time.Duration {
	if a > b {
		return a
	}
	return b
}
