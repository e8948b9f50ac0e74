package fleet

// Replicated-mutation tests: the fleet's ingest path must keep document
// numbering identical across replicas — through partial failures (the
// rollback + id-realignment path) and under concurrent mutations (the
// fleet-wide total order) — or visibly degrade when it cannot.

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"repro/internal/db"
	"repro/internal/metrics"
	"repro/internal/shard"
	"repro/internal/storage"
)

// scriptedIngestor wraps a real database replica so one replicated
// mutation can be forced to fail, optionally consuming a document id
// first (mimicking a half-indexed document that the live index
// tombstoned before surfacing the error).
type scriptedIngestor struct {
	*shard.DB
	failAdd       error
	consumeOnFail bool
	failUpdate    error
	failDelete    error
}

func (s *scriptedIngestor) Add(name, src string) error {
	if s.failAdd != nil {
		if s.consumeOnFail {
			_ = s.DB.BurnDocID()
		}
		return s.failAdd
	}
	return s.DB.Add(name, src)
}

func (s *scriptedIngestor) Update(name, src string) error {
	if s.failUpdate != nil {
		return s.failUpdate
	}
	return s.DB.Update(name, src)
}

func (s *scriptedIngestor) Delete(name string) error {
	if s.failDelete != nil {
		return s.failDelete
	}
	return s.DB.Delete(name)
}

// newIngestFleet builds a fleet over three real database replicas, each
// loaded with the same seed document, wrapped in scriptedIngestors.
func newIngestFleet(t *testing.T) (*Fleet, []*scriptedIngestor) {
	t.Helper()
	wraps := make([]*scriptedIngestor, 3)
	backends := make([]Backend, 3)
	for i := range wraps {
		d := shard.New(shard.Options{Shards: 1, Metrics: metrics.NewRegistry()})
		if err := d.LoadString("seed.xml", "<doc><p>seed text</p></doc>"); err != nil {
			t.Fatal(err)
		}
		d.Stats() // build the index up front
		wraps[i] = &scriptedIngestor{DB: d}
		backends[i] = wraps[i]
	}
	f, err := New(Config{HedgeAfter: -1, Metrics: metrics.NewRegistry()}, backends...)
	if err != nil {
		t.Fatal(err)
	}
	return f, wraps
}

// docID returns the global id a replica numbered a live document with.
// Ids are never reused, so the newest slot carrying the name is its own.
func docID(d *shard.DB, name string) (storage.DocID, bool) {
	if _, live := d.ShardOf(name); !live {
		return 0, false
	}
	for id := storage.DocID(d.AllocatedDocIDs() - 1); id >= 0; id-- {
		if d.DocName(id) == name {
			return id, true
		}
	}
	return 0, false
}

// assertAligned checks every replica assigned the same id to name and
// that the allocation cursors agree.
func assertAligned(t *testing.T, wraps []*scriptedIngestor, name string) {
	t.Helper()
	wantID, wantCur := storage.DocID(0), -1
	for i, w := range wraps {
		id, ok := docID(w.DB, name)
		if !ok {
			t.Fatalf("replica %d is missing %q", i, name)
		}
		if i == 0 {
			wantID, wantCur = id, w.AllocatedDocIDs()
			continue
		}
		if id != wantID {
			t.Errorf("replica %d numbered %q as %d, replica 0 as %d", i, name, id, wantID)
		}
		if cur := w.AllocatedDocIDs(); cur != wantCur {
			t.Errorf("replica %d allocation cursor = %d, replica 0 = %d", i, cur, wantCur)
		}
	}
}

func TestFleetAddReplicatesWithIdenticalNumbering(t *testing.T) {
	f, wraps := newIngestFleet(t)
	for _, name := range []string{"a.xml", "b.xml"} {
		if err := f.Add(name, "<doc><p>payload</p></doc>"); err != nil {
			t.Fatalf("Add %s: %v", name, err)
		}
		assertAligned(t, wraps, name)
	}
	if bad, reason := f.Degraded(); bad {
		t.Fatalf("clean replication degraded the fleet: %s", reason)
	}
}

// TestFleetAddRollbackRealignsNumbering is the regression test for the
// silent cross-replica numbering drift: a mid-fleet Add failure used to
// leave the rolled-back appliers one allocation ahead of the replicas
// the loop never reached, so every subsequent Add numbered differently
// per replica and Materialize/NameOf (resolved on an arbitrary replica)
// could silently return the wrong document.
func TestFleetAddRollbackRealignsNumbering(t *testing.T) {
	for _, consumed := range []bool{false, true} {
		t.Run(fmt.Sprintf("failedReplicaConsumedID=%v", consumed), func(t *testing.T) {
			f, wraps := newIngestFleet(t)
			boom := errors.New("replica 1 exploded")
			wraps[1].failAdd = boom
			wraps[1].consumeOnFail = consumed

			if err := f.Add("doomed.xml", "<doc><p>x</p></doc>"); !errors.Is(err, boom) {
				t.Fatalf("Add err = %v, want the injected failure", err)
			}
			// The rollback removed the document from the replica that applied.
			for i, w := range wraps {
				if w.DocumentCount() != 1 {
					t.Errorf("replica %d holds %d live documents after rollback, want 1", i, w.DocumentCount())
				}
			}
			// Allocation cursors were re-equalized...
			for i, w := range wraps {
				if got, want := w.AllocatedDocIDs(), wraps[0].AllocatedDocIDs(); got != want {
					t.Errorf("replica %d cursor = %d, replica 0 = %d", i, got, want)
				}
			}
			// ...so the next Add numbers identically everywhere.
			wraps[1].failAdd = nil
			if err := f.Add("next.xml", "<doc><p>y</p></doc>"); err != nil {
				t.Fatal(err)
			}
			assertAligned(t, wraps, "next.xml")
			if bad, reason := f.Degraded(); bad {
				t.Fatalf("repairable failure degraded the fleet: %s", reason)
			}
			if f.MetricsRegistry().Counter("tix_fleet_id_realign_total").Value() == 0 {
				t.Error("id_realign_total = 0, want > 0 after a partial add")
			}
		})
	}
}

// TestFleetConcurrentAddsKeepNumberingAligned exercises the fleet-wide
// mutation order: without it, two concurrent Adds can apply in opposite
// orders on different replicas and swap their document ids.
func TestFleetConcurrentAddsKeepNumberingAligned(t *testing.T) {
	f, wraps := newIngestFleet(t)
	const n = 24
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			name := fmt.Sprintf("doc-%02d.xml", i)
			if err := f.Add(name, "<doc><p>concurrent</p></doc>"); err != nil {
				t.Errorf("Add %s: %v", name, err)
			}
		}(i)
	}
	wg.Wait()
	for i := 0; i < n; i++ {
		assertAligned(t, wraps, fmt.Sprintf("doc-%02d.xml", i))
	}
}

func TestFleetPartialUpdateDegrades(t *testing.T) {
	f, wraps := newIngestFleet(t)
	boom := errors.New("update failed on replica 2")
	wraps[2].failUpdate = boom
	if err := f.Update("seed.xml", "<doc><p>v2</p></doc>"); !errors.Is(err, boom) {
		t.Fatalf("Update err = %v, want the injected failure", err)
	}
	bad, reason := f.Degraded()
	if !bad {
		t.Fatal("partial update did not degrade the fleet")
	}
	if reason == "" {
		t.Error("degraded fleet gave no reason")
	}
	if ok, why := f.Ready(); ok || why == "" {
		t.Errorf("degraded fleet Ready() = %v %q, want not-ready with a reason", ok, why)
	}
	if f.MetricsRegistry().Gauge("tix_fleet_degraded").Value() != 1 {
		t.Error("tix_fleet_degraded gauge not set")
	}
	// The replicas that applied the update gave it a fresh global id;
	// realignment burns one on the replica that did not, so the next add
	// is numbered alike everywhere.
	if err := f.Add("after.xml", "<doc><p>x</p></doc>"); err != nil {
		t.Fatal(err)
	}
	assertAligned(t, wraps, "after.xml")
}

func TestFleetPartialDeleteDegrades(t *testing.T) {
	f, wraps := newIngestFleet(t)
	boom := errors.New("delete failed on replica 0")
	wraps[0].failDelete = boom
	if err := f.Delete("seed.xml"); !errors.Is(err, boom) {
		t.Fatalf("Delete err = %v, want the injected failure", err)
	}
	if bad, _ := f.Degraded(); !bad {
		t.Fatal("partial delete did not degrade the fleet")
	}
}

func TestFleetFailedRollbackDegrades(t *testing.T) {
	f, wraps := newIngestFleet(t)
	// Replica 1 rejects the add; replica 0 applied but refuses to roll
	// back — its copy of the doomed document cannot be removed.
	wraps[1].failAdd = errors.New("no room")
	wraps[0].failDelete = errors.New("stuck")
	if err := f.Add("doomed.xml", "<doc><p>x</p></doc>"); err == nil {
		t.Fatal("Add succeeded, want failure")
	}
	if bad, _ := f.Degraded(); !bad {
		t.Fatal("failed rollback did not degrade the fleet")
	}
}

// TestFleetUniformUpdateFailureDoesNotDegrade: a deterministic
// client-class failure on every replica (unknown document) is not
// divergence — the replicas still agree.
func TestFleetUniformUpdateFailureDoesNotDegrade(t *testing.T) {
	f, _ := newIngestFleet(t)
	if err := f.Update("missing.xml", "<doc/>"); !errors.Is(err, db.ErrDocumentNotFound) {
		t.Fatalf("Update err = %v, want ErrDocumentNotFound", err)
	}
	if bad, reason := f.Degraded(); bad {
		t.Fatalf("uniform failure degraded the fleet: %s", reason)
	}
}
