package db_test

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/db"
	"repro/internal/exec"
	"repro/internal/metrics"
	"repro/internal/storage"
)

// These tests pin the segment's safety net — cancellation, budgets and
// storage faults surface as classified errors, never crashes — through
// the serving facade, which records each outcome by cause.

func counter(reg *metrics.Registry, name, op string) int64 {
	return reg.Counter(name + `{op="` + op + `"}`).Value()
}

func TestQueryContextCanceled(t *testing.T) {
	d, reg := newFacade(t, 1)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := d.QueryContext(ctx, `For $a := document("articles.xml")//section Sortby(score)`)
	if !errors.Is(err, exec.ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	if got := counter(reg, "tix_query_canceled_total", "query"); got != 1 {
		t.Errorf("tix_query_canceled_total = %d, want 1", got)
	}
}

func TestQueryLimitedDeadline(t *testing.T) {
	d, reg := newFacade(t, 1)
	d.SetLimits(exec.Limits{Timeout: time.Nanosecond, CheckEvery: 1})
	_, err := d.QueryContext(context.Background(),
		`For $a := document("articles.xml")//section Sortby(score)`)
	if !errors.Is(err, exec.ErrDeadlineExceeded) {
		t.Fatalf("err = %v, want ErrDeadlineExceeded", err)
	}
	if got := counter(reg, "tix_query_timeouts_total", "query"); got != 1 {
		t.Errorf("tix_query_timeouts_total = %d, want 1", got)
	}
}

func TestTermSearchLimits(t *testing.T) {
	d, reg := newFacade(t, 1)
	// MaxAccesses: the fixture TermJoin walks well over 5 node records.
	d.SetLimits(exec.Limits{MaxAccesses: 5, CheckEvery: 1})
	_, err := d.TermSearchContext(context.Background(), []string{"search", "engine"}, db.TermSearchOptions{})
	if !errors.Is(err, exec.ErrLimitExceeded) {
		t.Fatalf("MaxAccesses err = %v, want ErrLimitExceeded", err)
	}
	var le *exec.LimitError
	if !errors.As(err, &le) || le.Resource != "store accesses" {
		t.Fatalf("err = %#v, want *LimitError{store accesses}", err)
	}
	// MaxResults: the same search yields more than one scored element.
	d.SetLimits(exec.Limits{MaxResults: 1})
	_, err = d.TermSearchContext(context.Background(), []string{"search", "engine"}, db.TermSearchOptions{})
	if !errors.As(err, &le) || le.Resource != "results" {
		t.Fatalf("MaxResults err = %#v, want *LimitError{results}", err)
	}
	if got := counter(reg, "tix_query_limit_exceeded_total", "terms"); got != 2 {
		t.Errorf("tix_query_limit_exceeded_total = %d, want 2", got)
	}
}

func TestDefaultLimitsApply(t *testing.T) {
	d, _ := newFacade(t, 1)
	d.SetLimits(exec.Limits{MaxAccesses: 5, CheckEvery: 1})
	_, err := d.TermSearchContext(context.Background(), []string{"search", "engine"}, db.TermSearchOptions{})
	if !errors.Is(err, exec.ErrLimitExceeded) {
		t.Fatalf("database default limit not applied: err = %v", err)
	}
}

// TestParallelTermSearchCanceled: a canceled context stops the facade's
// parallel fan-out (one worker per shard).
func TestParallelTermSearchCanceled(t *testing.T) {
	d, _ := newFacade(t, 2)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := d.TermSearchContext(ctx, []string{"search"}, db.TermSearchOptions{})
	if !errors.Is(err, exec.ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
}

// TestFaultInjectionSurfacesAsErrors is the degradation acceptance test:
// with a fault injector failing every store access, every facade entry
// point returns a classified error instead of crashing the process.
func TestFaultInjectionSurfacesAsErrors(t *testing.T) {
	d, reg := newFacade(t, 1)
	d.Stats() // build the index before arming faults
	d.SetFaults(&storage.FaultInjector{FailEvery: 1})
	ctx := context.Background()

	if _, err := d.QueryContext(ctx, `For $a := document("articles.xml")//section Sortby(score)`); !errors.Is(err, storage.ErrInjectedFault) {
		t.Errorf("QueryContext err = %v, want ErrInjectedFault", err)
	}
	if _, err := d.QueryContext(ctx, `For $a := document("articles.xml")//section Return <r>{ $a }</r> Sortby(score)`); !errors.Is(err, storage.ErrInjectedFault) {
		t.Errorf("QueryContext with a Return template err = %v, want ErrInjectedFault", err)
	}
	if _, err := d.TermSearchContext(ctx, []string{"search", "engine"}, db.TermSearchOptions{}); !errors.Is(err, storage.ErrInjectedFault) {
		t.Errorf("TermSearchContext err = %v, want ErrInjectedFault", err)
	}
	if _, err := d.TermSearchContext(ctx, []string{"search", "engine"}, db.TermSearchOptions{TopK: 3}); !errors.Is(err, storage.ErrInjectedFault) {
		t.Errorf("top-k TermSearchContext err = %v, want ErrInjectedFault", err)
	}
	// PhraseFinder intersects posting lists by word offset without touching
	// the node store, so storage faults cannot reach it — it must keep
	// working (and must not crash).
	if _, err := d.PhraseSearchContext(ctx, []string{"information", "retrieval"}); err != nil {
		t.Errorf("PhraseSearchContext under faults: %v", err)
	}

	if got := counter(reg, "tix_query_faults_total", "query"); got != 2 {
		t.Errorf("tix_query_faults_total{op=query} = %d, want 2", got)
	}
	if got := counter(reg, "tix_query_faults_total", "terms"); got != 2 {
		t.Errorf("tix_query_faults_total{op=terms} = %d, want 2", got)
	}

	// Disarming restores normal service on the same store.
	d.SetFaults(nil)
	if _, err := d.TermSearchContext(ctx, []string{"search"}, db.TermSearchOptions{}); err != nil {
		t.Errorf("after disarm: %v", err)
	}
}

// TestFaultSeedIsDeterministic: the same configuration fails the same
// access on every run.
func TestFaultSeedIsDeterministic(t *testing.T) {
	failedAt := func(seed int64) int64 {
		d, _ := newFacade(t, 1)
		d.Stats()
		inj := &storage.FaultInjector{FailEvery: 10, Seed: seed}
		d.SetFaults(inj)
		_, err := d.TermSearchContext(context.Background(), []string{"search", "engine"}, db.TermSearchOptions{})
		var fe *storage.FaultError
		if !errors.As(err, &fe) {
			t.Fatalf("seed %d: err = %v, want *FaultError", seed, err)
		}
		return fe.Access
	}
	if a, b := failedAt(3), failedAt(3); a != b {
		t.Errorf("same seed failed at access %d then %d", a, b)
	}
	if a, b := failedAt(3), failedAt(4); a == b {
		t.Errorf("different seeds failed at the same access %d", a)
	}
}

// TestFaultLatencyInjection: latency-only injection slows queries without
// failing them, so deadline handling can be exercised deterministically.
func TestFaultLatencyInjection(t *testing.T) {
	d, _ := newFacade(t, 1)
	d.Stats()
	d.SetFaults(&storage.FaultInjector{Latency: 5 * time.Millisecond, LatencyEvery: 1})
	d.SetLimits(exec.Limits{Timeout: time.Millisecond, CheckEvery: 1})
	_, err := d.TermSearchContext(context.Background(), []string{"search", "engine"}, db.TermSearchOptions{})
	if !errors.Is(err, exec.ErrDeadlineExceeded) {
		t.Fatalf("err = %v, want ErrDeadlineExceeded", err)
	}
}
