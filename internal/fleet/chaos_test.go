package fleet

// Deterministic chaos drills: a replicated fleet over real databases is
// subjected to storage faults and injected latency mid-traffic, and the
// suite asserts the serving tier's contract — zero client-visible errors
// while 1-of-3 replicas is down, bounded tail latency, and the full
// breaker lifecycle (closed → open → half-open → closed) visible in
// metrics. Run under -race via `make chaos`.

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/db"
	"repro/internal/fixture"
	"repro/internal/metrics"
	"repro/internal/shard"
	"repro/internal/storage"
)

// chaosFleet is a 3-replica fleet over fully-loaded databases, with
// breaker and retry tunings fast enough to drive the whole lifecycle in
// a test.
type chaosFleet struct {
	fleet    *Fleet
	replicas []*shard.DB
	reg      *metrics.Registry
}

func newChaosFleet(t *testing.T, cfg Config) *chaosFleet {
	t.Helper()
	reg := metrics.NewRegistry()
	cf := &chaosFleet{reg: reg}
	var backends []Backend
	for i := 0; i < 3; i++ {
		d := shard.New(shard.Options{Shards: 1, Metrics: metrics.NewRegistry()})
		if err := d.LoadString("articles.xml", fixture.ArticlesXML); err != nil {
			t.Fatal(err)
		}
		if err := d.LoadString("reviews.xml", fixture.ReviewsXML); err != nil {
			t.Fatal(err)
		}
		d.Stats() // force the index: drills must hit the query path, not the build
		cf.replicas = append(cf.replicas, d)
		backends = append(backends, d)
	}
	cfg.Metrics = reg
	if cfg.Breaker == (BreakerConfig{}) {
		cfg.Breaker = BreakerConfig{
			Window:         8,
			MinSamples:     2,
			FailureRatio:   0.5,
			OpenFor:        30 * time.Millisecond,
			HalfOpenProbes: 1,
		}
	}
	if cfg.Backoff == (Backoff{}) {
		cfg.Backoff = Backoff{Base: time.Millisecond, Max: 4 * time.Millisecond}
	}
	f, err := New(cfg, backends...)
	if err != nil {
		t.Fatal(err)
	}
	cf.fleet = f
	return cf
}

// drive fires n queries through w workers, returning every observed
// latency; any client-visible error fails the test immediately.
func (cf *chaosFleet) drive(t *testing.T, w, n int) []time.Duration {
	t.Helper()
	var mu sync.Mutex
	var lats []time.Duration
	errc := make(chan error, w)
	var wg sync.WaitGroup
	for i := 0; i < w; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < n; j++ {
				start := time.Now()
				_, err := cf.fleet.TermSearchContext(context.Background(),
					[]string{"search", "engine"}, db.TermSearchOptions{TopK: 5})
				if err != nil {
					select {
					case errc <- err:
					default:
					}
					return
				}
				mu.Lock()
				lats = append(lats, time.Since(start))
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	select {
	case err := <-errc:
		t.Fatalf("client-visible error during drill: %v", err)
	default:
	}
	return lats
}

func p99(lats []time.Duration) time.Duration {
	if len(lats) == 0 {
		return 0
	}
	sorted := append([]time.Duration(nil), lats...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	idx := len(sorted) * 99 / 100
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

// TestChaosReplicaKilledMidTraffic is the headline drill: one of three
// replicas starts failing every storage access mid-traffic. The client
// must see zero errors (retries and routing mask the outage), the sick
// replica's breaker must open, and once the fault is lifted the breaker
// must walk half-open back to closed — all observable in the metrics
// registry.
func TestChaosReplicaKilledMidTraffic(t *testing.T) {
	cf := newChaosFleet(t, Config{HedgeAfter: -1, MaxRetries: 3})
	var lats []time.Duration

	// Healthy warm-up traffic.
	lats = append(lats, cf.drive(t, 4, 10)...)

	// Kill replica 0: every store access panics with an injected fault.
	cf.replicas[0].SetFaults(&storage.FaultInjector{FailEvery: 1})
	lats = append(lats, cf.drive(t, 4, 20)...)

	if got := cf.fleet.BreakerState(0); got != StateOpen {
		t.Fatalf("killed replica's breaker = %v, want open", got)
	}
	if cf.fleet.HealthyReplicas() != 2 {
		t.Fatalf("HealthyReplicas = %d during outage, want 2", cf.fleet.HealthyReplicas())
	}
	if got := cf.reg.Counter(`tix_fleet_retries_total{op="terms"}`).Value(); got == 0 {
		t.Error("outage masked without a single retry — fault injection did not bite")
	}
	if got := cf.reg.Counter(`tix_fleet_replica_errors_total{replica="0"}`).Value(); got == 0 {
		t.Error("replica_errors_total{replica=0} = 0 during outage")
	}
	if got := cf.reg.Gauge(`tix_fleet_breaker_state{replica="0"}`).Value(); got != int64(StateOpen) {
		t.Errorf("breaker state gauge = %d, want %d (open)", got, StateOpen)
	}

	// Lift the fault; after the cool-down the breaker probes and closes.
	cf.replicas[0].SetFaults(nil)
	time.Sleep(40 * time.Millisecond) // past OpenFor
	deadline := time.Now().Add(5 * time.Second)
	for cf.fleet.BreakerState(0) != StateClosed && time.Now().Before(deadline) {
		lats = append(lats, cf.drive(t, 2, 5)...)
	}
	if got := cf.fleet.BreakerState(0); got != StateClosed {
		t.Fatalf("recovered replica's breaker = %v, want closed", got)
	}

	// The full lifecycle is in the transition counters.
	for _, to := range []string{"open", "half_open", "closed"} {
		name := fmt.Sprintf(`tix_fleet_breaker_transitions_total{replica="0",to="%s"}`, to)
		if cf.reg.Counter(name).Value() == 0 {
			t.Errorf("transition counter %s never incremented", name)
		}
	}

	// Tail latency stays bounded through the whole drill: the outage costs
	// a failed attempt plus a few-ms backoff, not a timeout.
	if got := p99(lats); got > 2*time.Second {
		t.Errorf("p99 across the drill = %v, want bounded (≤ 2s)", got)
	}
}

// TestChaosSlowReplicaIsHedgedAround delays every storage access on one
// replica; hedged requests must mask the slowness (no errors, hedges
// fire and win, tail bounded well below the injected delay cost).
func TestChaosSlowReplicaIsHedgedAround(t *testing.T) {
	cf := newChaosFleet(t, Config{HedgeAfter: 5 * time.Millisecond, MaxRetries: 2})

	// Every access on replica 1 eats 20ms; a term query makes several
	// accesses, so un-hedged requests landing there would take hundreds of
	// milliseconds.
	cf.replicas[1].SetFaults(&storage.FaultInjector{
		Latency: 20 * time.Millisecond, LatencyEvery: 1,
	})
	lats := cf.drive(t, 4, 15)

	if got := cf.reg.Counter(`tix_fleet_hedges_total{op="terms"}`).Value(); got == 0 {
		t.Error("no hedges fired against a slow replica")
	}
	if got := cf.reg.Counter(`tix_fleet_hedge_wins_total{op="terms"}`).Value(); got == 0 {
		t.Error("no hedge ever won against a slow replica")
	}
	if got := p99(lats); got > 2*time.Second {
		t.Errorf("p99 with a slow replica = %v, want hedged down (≤ 2s)", got)
	}
}

// TestChaosAdmissionShedsUnderOverload pairs the fleet with an admission
// controller and overloads it: excess traffic is shed with typed errors
// instead of queueing into timeouts, and admitted traffic still succeeds.
func TestChaosAdmissionShedsUnderOverload(t *testing.T) {
	cf := newChaosFleet(t, Config{HedgeAfter: -1})
	adm := NewAdmission(AdmissionConfig{
		MaxInflight: 2, MaxQueue: 2, Metrics: cf.reg,
	})

	// Slow every replica a little so inflight slots stay occupied.
	for _, d := range cf.replicas {
		d.SetFaults(&storage.FaultInjector{
			Latency: time.Millisecond, LatencyEvery: 4,
		})
	}

	var wg sync.WaitGroup
	var mu sync.Mutex
	served, shed := 0, 0
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			release, err := adm.Admit(ctx, fmt.Sprintf("client-%d", i%4))
			if err != nil {
				mu.Lock()
				shed++
				mu.Unlock()
				return
			}
			defer release()
			if _, err := cf.fleet.TermSearchContext(ctx, []string{"search"}, db.TermSearchOptions{TopK: 3}); err != nil {
				t.Errorf("admitted request failed: %v", err)
				return
			}
			mu.Lock()
			served++
			mu.Unlock()
		}(i)
	}
	wg.Wait()

	if served == 0 {
		t.Fatal("overload shed everything; admitted traffic must still be served")
	}
	if shed > 0 && cf.reg.Counter("tix_admission_shed_total").Value() == 0 {
		t.Error("requests shed without incrementing tix_admission_shed_total")
	}
	if got := cf.reg.Gauge("tix_admission_inflight").Value(); got != 0 {
		t.Errorf("inflight gauge = %d after drain, want 0 (leaked slot)", got)
	}
}
