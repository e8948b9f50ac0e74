package shard

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/db"
	"repro/internal/exec"
	"repro/internal/metrics"
	"repro/internal/storage"
)

// These tests run the fan-out under the failure modes the production path
// must survive — injected storage faults, cancellation mid-scan, and
// concurrent callers — and are part of the -race suite (make stress).

func TestShardFaultSurfacesLatchedError(t *testing.T) {
	names, roots := corpusDocs(t, 6, 42)
	reg := metrics.NewRegistry()
	s := New(Options{Shards: 3, Metrics: reg})
	for i, name := range names {
		if err := s.LoadTree(name, roots[i]); err != nil {
			t.Fatal(err)
		}
	}
	s.Warm()
	s.SetLimits(exec.Limits{CheckEvery: 1})
	s.SetFaults(&storage.FaultInjector{FailEvery: 40})
	_, err := s.TermSearchContext(context.Background(), []string{"ctla", "ctlb"}, db.TermSearchOptions{})
	if err == nil {
		t.Fatal("fault injection produced no error")
	}
	// The latched first failure is the storage fault, never the
	// cancellation it triggered in the sibling workers.
	if !errors.Is(err, storage.ErrInjectedFault) {
		t.Fatalf("err = %v, want wrapped ErrInjectedFault", err)
	}
	if errors.Is(err, exec.ErrCanceled) {
		t.Fatalf("err = %v: cancellation masked the root-cause fault", err)
	}
	if !strings.Contains(err.Error(), "shard") {
		t.Errorf("err %q does not attribute the failing shard", err)
	}
	if got := reg.Counter(`tix_query_faults_total{op="terms"}`).Value(); got != 1 {
		t.Errorf("tix_query_faults_total = %d, want 1", got)
	}
	// At least one per-shard error counter incremented.
	total := int64(0)
	for i := 0; i < s.Shards(); i++ {
		total += reg.Counter(fmt.Sprintf(`tix_shard_errors_total{op="terms",shard="%d"}`, i)).Value()
	}
	if total == 0 {
		t.Error("no per-shard error counter incremented")
	}

	// Disarm: the database keeps serving.
	s.SetFaults(nil)
	res, err := s.TermSearchContext(context.Background(), []string{"ctla"}, db.TermSearchOptions{TopK: 5})
	if err != nil || len(res) == 0 {
		t.Fatalf("after disarm: results=%d err=%v", len(res), err)
	}
}

func TestShardCancellationStopsAllWorkers(t *testing.T) {
	names, roots := corpusDocs(t, 6, 43)
	s := newSharded(t, 3, ByHash, names, roots)
	s.Warm()
	s.SetLimits(exec.Limits{CheckEvery: 1})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.TermSearchContext(ctx, []string{"ctla", "ctlb"}, db.TermSearchOptions{}); !errors.Is(err, exec.ErrCanceled) {
		t.Fatalf("pre-canceled context: err = %v, want ErrCanceled", err)
	}
	if _, err := s.PhraseSearchContext(ctx, []string{"ctla", "ctlb"}); !errors.Is(err, exec.ErrCanceled) {
		t.Fatalf("phrase: err = %v, want ErrCanceled", err)
	}
}

func TestShardSharedAccessBudget(t *testing.T) {
	names, roots := corpusDocs(t, 6, 44)
	s := newSharded(t, 3, ByHash, names, roots)
	s.Warm()
	// The budget is shared across workers: a per-shard budget of 30 would
	// pass, a shared one must trip.
	s.SetLimits(exec.Limits{MaxAccesses: 30, CheckEvery: 1})
	_, err := s.TermSearchContext(context.Background(), []string{"ctla", "ctlb"}, db.TermSearchOptions{})
	if !errors.Is(err, exec.ErrLimitExceeded) {
		t.Fatalf("err = %v, want ErrLimitExceeded", err)
	}
	var le *exec.LimitError
	if !errors.As(err, &le) || le.Resource != "store accesses" {
		t.Fatalf("err = %v, want a store-accesses LimitError", err)
	}
}

// TestShardConcurrentStress hammers one sharded database from many
// goroutines mixing successful queries, cancellations, and deadline
// expiries, then verifies no worker goroutines leaked. Run under -race
// this also checks the fan-out's memory visibility.
func TestShardConcurrentStress(t *testing.T) {
	names, roots := corpusDocs(t, 8, 45)
	s := newSharded(t, 4, ByHash, names, roots)
	s.Warm()
	s.SetLimits(exec.Limits{CheckEvery: 8})

	baseline := runtime.NumGoroutine()
	const workers = 8
	const iters = 15
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				switch (w + i) % 4 {
				case 0:
					if _, err := s.TermSearchContext(context.Background(), []string{"ctla", "ctlb"}, db.TermSearchOptions{TopK: 10}); err != nil {
						t.Errorf("worker %d: terms: %v", w, err)
						return
					}
				case 1:
					if _, err := s.PhraseSearchContext(context.Background(), []string{"ctla", "ctlb"}); err != nil {
						t.Errorf("worker %d: phrase: %v", w, err)
						return
					}
				case 2:
					ctx, cancel := context.WithCancel(context.Background())
					cancel()
					if _, err := s.TermSearchContext(ctx, []string{"ctla"}, db.TermSearchOptions{}); !errors.Is(err, exec.ErrCanceled) {
						t.Errorf("worker %d: canceled search err = %v", w, err)
						return
					}
				case 3:
					ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Millisecond))
					_, err := s.TermSearchContext(ctx, []string{"ctla", "ctlb"}, db.TermSearchOptions{})
					cancel()
					if !errors.Is(err, exec.ErrDeadlineExceeded) {
						t.Errorf("worker %d: deadline err = %v", w, err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()

	// Shard workers are joined before each call returns; give the runtime
	// a moment to retire exiting goroutines, then require the count back
	// at (or below) the baseline.
	deadline := time.Now().Add(2 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= baseline {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d, baseline %d", runtime.NumGoroutine(), baseline)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
