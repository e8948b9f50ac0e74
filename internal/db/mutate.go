package db

import (
	"errors"
	"fmt"

	"repro/internal/storage"
	"repro/internal/xmltree"
)

// Document mutation API: Add/Update/Delete run against the live index —
// an LSM layer of memtables and immutable block segments — so documents
// become queryable (or disappear) without a rebuild, concurrently with
// readers. Updates and re-adds allocate fresh document ids; the old id is
// tombstoned and never reused.

// ErrDocumentExists marks an Add whose document name is already loaded
// (use Update to replace it).
var ErrDocumentExists = errors.New("db: document already exists")

// ErrDocumentNotFound marks an Update or Delete naming a document that is
// not loaded (or already deleted).
var ErrDocumentNotFound = errors.New("db: document not found")

// Generation returns the live index's mutation generation (0 before the
// index is first built). Equal generations imply an identical visible
// corpus, so clients can use it to detect staleness cheaply.
func (d *DB) Generation() uint64 {
	g, _ := d.CacheToken()
	return g
}

// CacheToken returns the generation a /query cache key over this segment
// is minted under, with ok=false while the segment cannot produce a
// stable one. Before the live index exists (bulk loading, or right after
// a snapshot load), store appends advance no generation counter, so two
// different corpus states would share generation 0; once it exists, every
// mutation advances the generation and equal tokens mean an identical
// visible corpus (DESIGN.md §13).
func (d *DB) CacheToken() (uint64, bool) {
	l := d.live.Load()
	if l == nil {
		return 0, false
	}
	return l.Generation(), true
}

// TermsGeneration returns the generation a /terms or /phrase cache key
// over terms is minted under: the live index's TermsGeneration, which
// moves only when a write touches a document holding one of the terms.
// ok=false before the live index exists, as for CacheToken. It takes no
// lock.
func (d *DB) TermsGeneration(terms []string) (uint64, bool) {
	l := d.live.Load()
	if l == nil {
		return 0, false
	}
	return l.TermsGeneration(terms), true
}

// Add parses src and ingests it under name into the live index. The
// document is queryable as soon as Add returns. Adding a name that is
// already loaded fails with ErrDocumentExists.
func (d *DB) Add(name, src string) error {
	root, err := xmltree.ParseString(src)
	if err != nil {
		return fmt.Errorf("db: add %s: %w", name, err)
	}
	return d.AddTree(name, root)
}

// AddTree ingests an already-parsed tree under name into the live index.
func (d *DB) AddTree(name string, root *xmltree.Node) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.store.DocByName(name) != nil {
		return fmt.Errorf("%w: %q", ErrDocumentExists, name)
	}
	live := d.liveLocked()
	id, err := d.store.AddTree(name, root)
	if err != nil {
		return err
	}
	if err := live.IndexDoc(d.store.Doc(id)); err != nil {
		// The document was tombstoned by the live index; release the name
		// so a corrected version can be re-added.
		d.store.ReleaseName(name)
		return fmt.Errorf("db: add %s: %w", name, err)
	}
	return nil
}

// Update replaces the named document with a fresh parse of src: the old
// version is tombstoned and the new one ingested under a new document id,
// atomically with respect to other mutations. Readers switch from old to
// new at snapshot granularity.
func (d *DB) Update(name, src string) error {
	root, err := xmltree.ParseString(src)
	if err != nil {
		return fmt.Errorf("db: update %s: %w", name, err)
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	old := d.store.DocByName(name)
	if old == nil {
		return fmt.Errorf("%w: %q", ErrDocumentNotFound, name)
	}
	live := d.liveLocked()
	live.Delete(old.ID)
	d.store.ReleaseName(name)
	id, err := d.store.AddTree(name, root)
	if err != nil {
		return fmt.Errorf("db: update %s: %w", name, err)
	}
	if err := live.IndexDoc(d.store.Doc(id)); err != nil {
		d.store.ReleaseName(name)
		return fmt.Errorf("db: update %s: %w", name, err)
	}
	return nil
}

// Delete tombstones the named document: its postings stop flowing out of
// every cursor immediately and its store space is reclaimed by the next
// full compaction (or a Save, which persists only live documents). The
// name becomes available for a future Add.
func (d *DB) Delete(name string) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	doc := d.store.DocByName(name)
	if doc == nil {
		return fmt.Errorf("%w: %q", ErrDocumentNotFound, name)
	}
	live := d.liveLocked()
	live.Delete(doc.ID)
	d.store.ReleaseName(name)
	return nil
}

// CompactNow synchronously folds the live index's memtables and segments
// into a single fresh segment, dropping tombstoned postings. Queries stay
// consistent throughout; afterwards a mutation-free database serves flat
// single-part lists again.
func (d *DB) CompactNow() {
	d.liveIndex().Compact()
}

// WaitCompaction blocks until any in-flight background compaction
// finishes — deterministic shutdown and test hook.
func (d *DB) WaitCompaction() {
	l := d.live.Load()
	if l != nil {
		l.WaitCompaction()
	}
}

// CompactionBacklog returns the live index's outstanding compaction work
// (sealed memtables plus surplus segments; see index.Live.Backlog), or 0
// before the index is first built. Readiness probes use it to report
// not-ready when ingestion has outrun folding.
func (d *DB) CompactionBacklog() int {
	l := d.live.Load()
	if l == nil {
		return 0
	}
	return l.Backlog()
}

// IsDeleted reports whether id is tombstoned in the live index.
func (d *DB) IsDeleted(id storage.DocID) bool {
	l := d.live.Load()
	return l != nil && l.IsDead(id)
}
