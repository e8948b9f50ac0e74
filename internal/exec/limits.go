package exec

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/storage"
)

// Typed execution-control errors. Every access method surfaces exactly one
// of these (possibly wrapped) when it stops early; callers classify with
// errors.Is.
var (
	// ErrCanceled reports that the query's context was canceled (an HTTP
	// client disconnecting, a parent operation aborting).
	ErrCanceled = errors.New("exec: query canceled")
	// ErrDeadlineExceeded reports that the query ran past its wall-clock
	// deadline (Limits.Timeout or a context deadline).
	ErrDeadlineExceeded = errors.New("exec: query deadline exceeded")
	// ErrLimitExceeded reports that the query exhausted a resource budget
	// (Limits.MaxResults or Limits.MaxAccesses). The concrete error is a
	// *LimitError naming the resource.
	ErrLimitExceeded = errors.New("exec: query resource limit exceeded")
)

// LimitError is the concrete error for an exhausted resource budget. It
// unwraps to ErrLimitExceeded.
type LimitError struct {
	Resource string // "results" or "store accesses"
	Limit    int64
}

// Error implements error.
func (e *LimitError) Error() string {
	return fmt.Sprintf("exec: query exceeded %s limit (%d)", e.Resource, e.Limit)
}

// Unwrap makes errors.Is(err, ErrLimitExceeded) true.
func (e *LimitError) Unwrap() error { return ErrLimitExceeded }

// Limits is a per-query resource budget. The zero value means unlimited.
type Limits struct {
	// Timeout bounds the query's wall-clock time (0 = none). A context
	// deadline, when earlier, wins.
	Timeout time.Duration
	// MaxResults bounds the number of elements an access method emits
	// (0 = none). For partitioned evaluation the budget is shared: the
	// workers' combined emissions count against one limit.
	MaxResults int64
	// MaxAccesses bounds the number of node-record fetches the query may
	// perform across all of its accessors (0 = none).
	MaxAccesses int64
	// CheckEvery is the cooperative check interval in work units —
	// postings merged, nodes visited, results emitted (0 = the default,
	// DefaultCheckEvery). Smaller intervals stop runaway queries sooner
	// at slightly higher per-posting cost.
	CheckEvery int
}

// DefaultCheckEvery is the cooperative check interval used when
// Limits.CheckEvery is zero.
const DefaultCheckEvery = 256

// deadlineCheckEvery is the tightened default interval for guards with a
// wall-clock deadline: a time.Now() every few dozen work units is cheap,
// and it keeps short-but-slow queries (pathological I/O, injected latency)
// from overrunning their deadline unchecked.
const deadlineCheckEvery = 32

// Guard is the cooperative cancellation and resource-budget checker
// threaded through every access method. Operators call Tick once per unit
// of work and NoteEmit once per emitted result; every CheckEvery units the
// guard performs the full check (context done, deadline, access budget)
// and returns the typed error when the query must stop. Between checks the
// cost is one atomic add.
//
// A nil *Guard is valid and disables all checking, so unguarded callers
// pay nothing. A Guard may be shared by concurrent workers: all counters
// are atomic, and the first failure latches so that every worker observes
// the same error within one check interval.
type Guard struct {
	ctx         context.Context
	limits      Limits
	deadline    time.Time
	hasDeadline bool
	every       int64

	ticks atomic.Int64
	// next is the first multiple of every above the tick count of the
	// last full check: a tick that reaches it has crossed a multiple.
	next    atomic.Int64
	emitted atomic.Int64
	budget  storage.AccessBudget
	failed  atomic.Pointer[failure]
}

type failure struct{ err error }

// NewGuard builds a guard for one query evaluation from a context and a
// budget. It returns nil — the no-op guard — when there is nothing to
// enforce (background-style context and zero limits).
func NewGuard(ctx context.Context, limits Limits) *Guard {
	if (ctx == nil || ctx.Done() == nil) && limits == (Limits{}) {
		return nil
	}
	if ctx == nil {
		ctx = context.Background()
	}
	g := &Guard{ctx: ctx, limits: limits, every: int64(limits.CheckEvery)}
	explicit := g.every > 0
	if !explicit {
		g.every = DefaultCheckEvery
	}
	if limits.Timeout > 0 {
		g.deadline = time.Now().Add(limits.Timeout)
		g.hasDeadline = true
	}
	if d, ok := ctx.Deadline(); ok && (!g.hasDeadline || d.Before(g.deadline)) {
		g.deadline = d
		g.hasDeadline = true
	}
	if !explicit {
		// The default interval amortizes the check over queries doing
		// hundreds of thousands of work units — but a query that finishes
		// in under one interval would then never be checked at all. When
		// the budget or a deadline demands finer granularity, tighten the
		// defaulted interval; an explicit CheckEvery still wins.
		if m := limits.MaxAccesses; m > 0 && m < g.every {
			g.every = m
		}
		if g.hasDeadline && g.every > deadlineCheckEvery {
			g.every = deadlineCheckEvery
		}
	}
	g.next.Store(g.every)
	return g
}

// Attach points acc's access metering at the guard's shared budget and
// returns acc, for call-site chaining. No-op on a nil guard or accessor.
func (g *Guard) Attach(acc *storage.Accessor) *storage.Accessor {
	if g != nil && acc != nil {
		acc.Budget = &g.budget
	}
	return acc
}

// NewAccessor returns a fresh accessor over s attached to the guard's
// budget. Valid on a nil guard (plain accessor).
func (g *Guard) NewAccessor(s *storage.Store) *storage.Accessor {
	return g.Attach(storage.NewAccessor(s))
}

// fail latches the first failure and returns the latched error.
func (g *Guard) fail(err error) error {
	f := &failure{err: err}
	if !g.failed.CompareAndSwap(nil, f) {
		return g.failed.Load().err
	}
	return err
}

// Err returns the latched failure, or nil while the query may proceed.
func (g *Guard) Err() error {
	if g == nil {
		return nil
	}
	if f := g.failed.Load(); f != nil {
		return f.err
	}
	return nil
}

// Tick records one unit of work. Every CheckEvery ticks it performs the
// full Check; otherwise it only reports an already-latched failure.
func (g *Guard) Tick() error {
	if g == nil {
		return nil
	}
	if t := g.ticks.Add(1); t >= g.next.Load() {
		return g.crossed(t)
	}
	return g.Err()
}

// TickN records n units of work at once — what batch consumers (block
// decodes, document-count scans) use so skipping work does not skip
// accountability. It preserves Tick's cadence: the full Check runs if any
// multiple of CheckEvery was crossed by the batch.
func (g *Guard) TickN(n int) error {
	if g == nil {
		return nil
	}
	if n <= 0 {
		return g.Err()
	}
	if t := g.ticks.Add(int64(n)); t >= g.next.Load() {
		return g.crossed(t)
	}
	return g.Err()
}

// crossed runs the full Check for a tick count t that reached a multiple
// of the interval, first moving next past t. Concurrent workers may both
// see the same crossing and both check; next only ever grows, so none
// moves it back. The division runs once per interval, not per tick.
func (g *Guard) crossed(t int64) error {
	want := (t/g.every + 1) * g.every
	for {
		cur := g.next.Load()
		if cur >= want || g.next.CompareAndSwap(cur, want) {
			return g.Check()
		}
	}
}

// Check performs the full cooperative check immediately: latched failure,
// context cancellation, wall-clock deadline, and the access budget. Access
// methods call it once at Run entry (so an already-dead query never starts
// scanning) and through Tick thereafter.
func (g *Guard) Check() error {
	if g == nil {
		return nil
	}
	if err := g.Err(); err != nil {
		return err
	}
	select {
	case <-g.ctx.Done():
		if errors.Is(g.ctx.Err(), context.DeadlineExceeded) {
			return g.fail(ErrDeadlineExceeded)
		}
		return g.fail(ErrCanceled)
	default:
	}
	if g.hasDeadline && time.Now().After(g.deadline) {
		return g.fail(ErrDeadlineExceeded)
	}
	if m := g.limits.MaxAccesses; m > 0 && g.budget.Used() > m {
		return g.fail(&LimitError{Resource: "store accesses", Limit: m})
	}
	return nil
}

// NoteEmit reserves one result slot, failing when the MaxResults budget is
// exhausted — callers invoke it before emitting, so exactly MaxResults
// results are delivered and the next one trips the limit. It also counts
// as a Tick.
func (g *Guard) NoteEmit() error {
	if g == nil {
		return nil
	}
	if m := g.limits.MaxResults; m > 0 && g.emitted.Add(1) > m {
		return g.fail(&LimitError{Resource: "results", Limit: m})
	}
	return g.Tick()
}
