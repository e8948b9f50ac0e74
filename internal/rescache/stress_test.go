package rescache

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/metrics"
)

// TestStressConcurrentGetPutSweep hammers one tiny cache from many
// goroutines — gets and puts racing generation changes on a budget small
// enough that eviction runs constantly — then checks the books: cost accounting must recompute exactly (never negative), and
// the hit/miss/put/eviction counters must reconcile with the operations
// issued and the entries left. Run under -race via `make race`.
func TestStressConcurrentGetPutSweep(t *testing.T) {
	c := New(Config{
		MaxBytes: 4096,
		Shards:   4,
		Metrics:  metrics.NewRegistry(),
	})
	defer c.Close()

	const (
		workers = 8
		iters   = 5_000
		keys    = 64
		gens    = 4
	)
	var gets atomic.Int64
	var gen atomic.Uint64
	gen.Store(1)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Deterministic per-worker schedule; no shared RNG.
			seq := uint64(w)*2654435761 + 1
			for i := 0; i < iters; i++ {
				seq = seq*6364136223846793005 + 1442695040888963407
				k := TermKey(gen.Load()%gens+1, []string{fmt.Sprintf("k%02d", seq%keys)}, TermOpts{})
				switch seq % 7 {
				case 0, 1, 2:
					gets.Add(1)
					GetSlice[int64](c, k)
				case 3, 4, 5:
					PutSlice(c, k, make([]int64, seq%9))
				case 6:
					gen.Add(1)
				}
				if c.Stats().Bytes < 0 {
					t.Error("byte accounting went negative under concurrency")
					return
				}
			}
		}(w)
	}
	wg.Wait()

	if err := c.checkInvariants(); err != nil {
		t.Fatal(err)
	}
	st := c.Stats()
	if st.Hits+st.Misses != gets.Load() {
		t.Errorf("hits %d + misses %d != gets issued %d", st.Hits, st.Misses, gets.Load())
	}
	if st.Puts-st.Evictions != st.Entries {
		t.Errorf("puts %d - evictions %d != entries %d", st.Puts, st.Evictions, st.Entries)
	}
	if st.Bytes < 0 || st.Entries < 0 {
		t.Errorf("negative accounting after stress: %d bytes / %d entries", st.Bytes, st.Entries)
	}
	t.Logf("stress: %+v", st)
}

// TestCloseRacingTraffic: Close while readers and writers are still
// running must not deadlock or corrupt accounting (the cache stays
// usable).
func TestCloseRacingTraffic(t *testing.T) {
	c := New(Config{
		MaxBytes: 1 << 14,
		Metrics:  metrics.NewRegistry(),
	})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 2_000; i++ {
				k := TermKey(1, []string{fmt.Sprintf("w%d-%d", w, i%31)}, TermOpts{})
				PutSlice(c, k, make([]int64, i%5))
				GetSlice[int64](c, k)
			}
		}(w)
	}
	c.Close()
	wg.Wait()
	if err := c.checkInvariants(); err != nil {
		t.Fatal(err)
	}
}
