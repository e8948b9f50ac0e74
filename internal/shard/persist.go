package shard

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"repro/internal/db"
	"repro/internal/storage"
)

// Sharded database file format (version 1):
//
//	magic    "TIXSHD1\n"
//	layout   strategy byte, uvarint shard count
//	docs     uvarint count; per live document, in global order: name,
//	         uvarint shard
//	segments per shard: uvarint byte length, then a complete segment
//	         snapshot (db.Save output — TIXDB2 with block-compressed
//	         postings and its own "TIXSUM1\n"+CRC32 trailer intact)
//	trailer  "TIXSUM1\n" + 4-byte little-endian IEEE CRC32 of every byte
//	         before the trailer
//
// This container is the only snapshot format anything opens. It is
// written and read with the segment format's framing (db.FrameWriter,
// db.FrameReader). Integrity is two-layer: the container trailer covers
// the whole file, and each embedded segment still carries (and re-verifies
// through db.Load) its own trailer, so a flipped bit is attributed to the
// shard it corrupted. Both trailers are mandatory.
const fileMagic = "TIXSHD1\n"

// ErrCorruptSnapshot marks sharded-container integrity failures. Test
// with errors.Is; segment-level corruption surfaces as the wrapped
// db.ErrCorruptSnapshot instead.
var ErrCorruptSnapshot = errors.New("shard: corrupt sharded database file")

// maxShards bounds the shard count a container may declare — far above
// any real deployment, low enough that a corrupted count cannot drive
// allocations.
const maxShards = 1 << 16

// liveDoc is one live document: its global id and where its segment
// holds it.
type liveDoc struct {
	gid   storage.DocID
	shard int
	local storage.DocID
}

// liveDocsLocked lists the documents each segment saves: its locals in
// order, minus those it holds as deleted (superseded versions included),
// merged across segments by global id with each segment's order kept, as
// Load's placement check needs. A never-mutated facade lists every global
// id in ascending order. Caller holds s.mu.
func (s *DB) liveDocsLocked() []liveDoc {
	per := make([][]liveDoc, len(s.segs))
	for i, seg := range s.segs {
		for local, gid := range s.globalOf[i] {
			if !seg.IsDeleted(storage.DocID(local)) {
				per[i] = append(per[i], liveDoc{gid: gid, shard: i, local: storage.DocID(local)})
			}
		}
	}
	return kwayMerge(per, func(a, b liveDoc) bool { return a.gid < b.gid })
}

// Save writes the sharded database — layout, the placement of every live
// document, and one complete db.Save snapshot per segment — to w,
// followed by the container integrity trailer. It is the only snapshot
// writer the binaries use. It holds the routing lock throughout, so a
// concurrent Add, Update or Delete cannot land between the placement
// table and the segment snapshots it must agree with.
func (s *DB) Save(w io.Writer) error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	for gid, ref := range s.docs {
		if ref.shard < 0 {
			return fmt.Errorf("shard: save: global id %d is a burned slot (drifted replica; re-sync from a healthy copy instead of saving)", gid)
		}
	}
	live := s.liveDocsLocked()
	fw := db.NewFrameWriter(w)
	_, _ = fw.WriteString(fileMagic)
	_ = fw.WriteByte(byte(s.opts.Strategy))
	fw.PutUvarint(uint64(len(s.segs)))
	fw.PutUvarint(uint64(len(live)))
	for _, d := range live {
		fw.PutString(s.names[d.gid])
		fw.PutUvarint(uint64(d.shard))
	}
	for _, seg := range s.segs {
		var buf bytes.Buffer
		if err := seg.Save(&buf); err != nil {
			return err
		}
		fw.PutUvarint(uint64(buf.Len()))
		_, _ = fw.Write(buf.Bytes())
	}
	return fw.Seal()
}

// SaveFile writes the sharded database to path without ever exposing a
// partial file there: the snapshot goes to a temporary file in the same
// directory, which is synced, closed and renamed over path, and then the
// directory is synced so the rename survives a crash. A failed save
// leaves any previous snapshot at path untouched and removes the
// temporary file.
func (s *DB) SaveFile(path string) error {
	dir := filepath.Dir(path)
	f, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return fmt.Errorf("shard: %w", err)
	}
	// CreateTemp creates the file 0600; a snapshot keeps the mode a plain
	// create would give it under the usual umask.
	err = f.Chmod(0o644)
	if err == nil {
		err = s.Save(f)
	}
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(f.Name(), path)
	}
	if err != nil {
		_ = os.Remove(f.Name()) // the save already failed; this only tidies up
		return fmt.Errorf("shard: save %s: %w", path, err)
	}
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("shard: %w", err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("shard: %w", err)
	}
	return nil
}

// Load reads a sharded database written by Save, verifying the container
// trailer and every segment's own trailer, and rebuilding the global
// document numbering. The declared placement is cross-checked against
// each segment's actual contents.
func Load(r io.Reader) (*DB, error) {
	fr := db.NewFrameReader(r, "shard: load", 1<<20, ErrCorruptSnapshot)
	if err := fr.Magic(fileMagic); err != nil {
		return nil, err
	}
	strat, err := fr.ReadByte()
	if err != nil {
		return nil, fmt.Errorf("shard: load: %w", err)
	}
	nShards, err := fr.Uvarint()
	if err != nil {
		return nil, err
	}
	if nShards < 1 || nShards > maxShards {
		return nil, fmt.Errorf("shard: load: implausible shard count %d: %w", nShards, ErrCorruptSnapshot)
	}
	nDocs, err := fr.Uvarint()
	if err != nil {
		return nil, err
	}
	if nDocs > 1<<31 {
		return nil, fmt.Errorf("shard: load: implausible document count %d: %w", nDocs, ErrCorruptSnapshot)
	}
	type placement struct {
		name  string
		shard int
	}
	placements := make([]placement, 0, min(nDocs, 1<<16))
	for i := uint64(0); i < nDocs; i++ {
		name, err := fr.Text()
		if err != nil {
			return nil, err
		}
		sh, err := fr.Uvarint()
		if err != nil {
			return nil, err
		}
		if sh >= nShards {
			return nil, fmt.Errorf("shard: load: document %q placed on shard %d of %d: %w",
				name, sh, nShards, ErrCorruptSnapshot)
		}
		placements = append(placements, placement{name: name, shard: int(sh)})
	}
	segs := make([]*db.DB, nShards)
	for i := range segs {
		segLen, err := fr.Uvarint()
		if err != nil {
			return nil, err
		}
		if segLen > 1<<31 {
			return nil, fmt.Errorf("shard: load: implausible segment length %d: %w", segLen, ErrCorruptSnapshot)
		}
		seg, err := db.Load(io.LimitReader(fr, int64(segLen)))
		if err != nil {
			return nil, fmt.Errorf("shard: load: segment %d: %w", i, err)
		}
		segs[i] = seg
	}
	if err := fr.Verify(); err != nil {
		return nil, err
	}

	// Rebuild the facade: segment options drive the shard options, and
	// the declared placement must match what each segment actually holds,
	// in order.
	var base db.Options
	if len(segs) > 0 {
		base = segs[0].Options()
	}
	s := New(Options{
		Shards:    int(nShards),
		Strategy:  Strategy(strat),
		Stemming:  base.Stemming,
		Stopwords: base.Stopwords,
	})
	s.segs = segs
	// One table per segment, taken once: the placement check must stay
	// linear in the document count.
	tables := make([][]*storage.Document, nShards)
	for i, seg := range segs {
		tables[i] = seg.Store().Docs()
	}
	cursors := make([]int, nShards)
	for _, p := range placements {
		segDocs := tables[p.shard]
		k := cursors[p.shard]
		if k >= len(segDocs) || segDocs[k].Name != p.name {
			return nil, fmt.Errorf("shard: load: placement of %q does not match segment %d contents: %w",
				p.name, p.shard, ErrCorruptSnapshot)
		}
		cursors[p.shard]++
		if _, dup := s.byName[p.name]; dup {
			return nil, fmt.Errorf("shard: load: duplicate document %q: %w", p.name, ErrCorruptSnapshot)
		}
		s.track(p.name, p.shard, segDocs[k].ID)
	}
	for i, table := range tables {
		if cursors[i] != len(table) {
			return nil, fmt.Errorf("shard: load: segment %d holds %d documents, placement lists %d: %w",
				i, len(table), cursors[i], ErrCorruptSnapshot)
		}
	}
	return s, nil
}

// OpenFile reads a sharded database file written by SaveFile. Any other
// file, a bare segment snapshot included, is rejected.
func OpenFile(path string) (*DB, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("shard: %w", err)
	}
	defer f.Close()
	return Load(f)
}

// Reshard redistributes the live corpus across n shards under the given
// strategy, reusing the already-parsed document trees: the documents Save
// would write, in the same order. Indexes are rebuilt lazily (or via Warm)
// on the new instance.
func (s *DB) Reshard(n int, strategy Strategy) (*DB, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := New(Options{
		Shards:    n,
		Strategy:  strategy,
		Stemming:  s.opts.Stemming,
		Stopwords: s.opts.Stopwords,
		Metrics:   s.opts.Metrics,
		Limits:    s.opts.Limits,
	})
	for _, d := range s.liveDocsLocked() {
		doc := s.segs[d.shard].Store().Doc(d.local)
		if doc == nil {
			return nil, fmt.Errorf("shard: reshard: document %q missing from segment %d", s.names[d.gid], d.shard)
		}
		if err := out.LoadTree(doc.Name, doc.Root); err != nil {
			return nil, fmt.Errorf("shard: reshard: %w", err)
		}
	}
	return out, nil
}
