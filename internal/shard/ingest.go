package shard

import (
	"fmt"
	"time"

	"repro/internal/db"
	"repro/internal/storage"
)

// Routed ingestion: the sharded counterparts of db.Add/Update/Delete.
// Documents route to segments exactly as loads do (ByHash keeps the
// placement stable across restarts; RoundRobin follows the cursor), so a
// corpus grown through Add matches one bulk-loaded from the same names.
// Mutations are serialized by the facade lock; queries keep running
// against per-segment snapshots and translate ids under the read lock.
// Every attempt is observed (see metrics.go) while the lock is held, so
// tix_index_generation is published in mutation order.
//
// Global ids are never reused. An Update retires the document's global id
// and allocates a fresh one, as Add does; a Delete retires the name and
// leaves a dead global slot behind.

// syncTables realigns the routing tables after a segment mutation failed:
// when the segment consumed no local document id (e.g. the source failed
// to parse), the speculative table entries are rolled back; when it did
// (the document was indexed partially and tombstoned), the dead mapping
// stays, keeping globalOf aligned with the segment's local numbering.
// Caller holds s.mu.
func (s *DB) syncTables(i int) {
	n := s.segs[i].Store().NumDocs()
	if len(s.globalOf[i]) > n {
		s.globalOf[i] = s.globalOf[i][:n]
		s.docs = s.docs[:len(s.docs)-1]
		s.names = s.names[:len(s.names)-1]
	}
}

// Add parses src and ingests it into the segment the document's name
// routes to. The document is queryable across the facade as soon as Add
// returns. Adding a loaded name fails with db.ErrDocumentExists.
func (s *DB) Add(name, src string) (err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	start := time.Now()
	defer func() { s.observeIngest(opAdd, start, err) }()
	if _, dup := s.byName[name]; dup {
		return fmt.Errorf("shard: add %q: %w", name, db.ErrDocumentExists)
	}
	i := s.pickShard(name)
	seg := s.segs[i]
	// Register the id translation before the segment mutation: the moment
	// the document becomes visible in a segment snapshot, a concurrent
	// query may need its global id.
	gid := storage.DocID(len(s.docs))
	local := storage.DocID(seg.Store().NumDocs())
	s.docs = append(s.docs, docRef{shard: i, local: local})
	s.names = append(s.names, name)
	s.globalOf[i] = append(s.globalOf[i], gid)
	if err := seg.Add(name, src); err != nil {
		s.syncTables(i)
		return err
	}
	s.byName[name] = gid
	s.next++
	s.shardGauge(i)
	return nil
}

// Update replaces the named document: same segment, fresh content, and a
// fresh global id (with a fresh segment-local id underneath), as Add
// allocates, so the new version takes its place at the end of document
// order both live and after a reopen.
func (s *DB) Update(name, src string) (err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	start := time.Now()
	defer func() { s.observeIngest(opUpdate, start, err) }()
	old, ok := s.byName[name]
	if !ok {
		return fmt.Errorf("shard: update %q: %w", name, db.ErrDocumentNotFound)
	}
	i := s.docs[old].shard
	seg := s.segs[i]
	gid := storage.DocID(len(s.docs))
	s.docs = append(s.docs, docRef{shard: i, local: storage.DocID(seg.Store().NumDocs())})
	s.names = append(s.names, name)
	s.globalOf[i] = append(s.globalOf[i], gid)
	if err = seg.Update(name, src); err == nil {
		s.byName[name] = gid
	} else {
		s.syncTables(i)
		if seg.Store().DocByName(name) == nil {
			// The old version was tombstoned before the failure: the
			// document is gone, not restored.
			delete(s.byName, name)
		}
	}
	s.shardGauge(i)
	return err
}

// Delete tombstones the named document in its segment and retires its
// global id (the slot is never reused). The name becomes available for a
// future Add, which may route it to the same segment again.
func (s *DB) Delete(name string) (err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	start := time.Now()
	defer func() { s.observeIngest(opDelete, start, err) }()
	gid, ok := s.byName[name]
	if !ok {
		return fmt.Errorf("shard: delete %q: %w", name, db.ErrDocumentNotFound)
	}
	ref := s.docs[gid]
	if err := s.segs[ref.shard].Delete(name); err != nil {
		return err
	}
	delete(s.byName, name)
	s.shardGauge(ref.shard)
	return nil
}

// AllocatedDocIDs returns the global document-id allocation cursor: the
// number of global ids ever handed out across all segments, live or
// dead. The replicated fleet compares cursors across replicas to detect
// and repair numbering drift after a partial replicated mutation.
func (s *DB) AllocatedDocIDs() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.docs)
}

// BurnDocID consumes one global document id: a dead, nameless slot is
// appended to the global table so the next Add allocates the id after
// it. The replicated fleet burns ids on replicas that a partially-failed
// mutation never reached (see fleet.Fleet.Add). A burned slot resolves
// to no segment (refOf reports it unknown), never appears in results,
// and exists only at runtime — a drifted replica is re-synced by
// reloading, not by snapshotting its burned slots.
func (s *DB) BurnDocID() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.docs = append(s.docs, docRef{shard: -1})
	s.names = append(s.names, "")
	return nil
}

// Generation returns the sum of the segment generations — a cheap
// staleness token that changes whenever any segment mutates.
func (s *DB) Generation() uint64 {
	var g uint64
	for _, seg := range s.segs {
		g += seg.Generation()
	}
	return g
}

// CompactNow synchronously folds every segment's live index.
func (s *DB) CompactNow() {
	for _, seg := range s.segs {
		seg.CompactNow()
	}
}

// WaitCompaction blocks until every segment's in-flight background
// compaction finishes.
func (s *DB) WaitCompaction() {
	for _, seg := range s.segs {
		seg.WaitCompaction()
	}
}

// CompactionBacklog returns the summed outstanding compaction work across
// all segments (see db.DB.CompactionBacklog).
func (s *DB) CompactionBacklog() int {
	var n int
	for _, seg := range s.segs {
		n += seg.CompactionBacklog()
	}
	return n
}
