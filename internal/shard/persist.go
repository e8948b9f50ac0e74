package shard

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/db"
	"repro/internal/index"
	"repro/internal/metrics"
	"repro/internal/storage"
	"repro/internal/xmltree"
)

// Snapshot file format:
//
//	magic    "TIXSHD2\n"
//	header   strategy byte, uvarint shard count, stemming byte (0/1),
//	         uvarint stopword count, stopwords
//	docs     uvarint count; per live document, in global order: uvarint
//	         shard, name, serialized XML
//	indexes  per shard, the index section of its segment (db.WriteIndex)
//	trailer  "TIXSUM1\n" + 4-byte little-endian IEEE CRC32 of every byte
//	         before the trailer
//
// Strings are uvarint length + bytes, framed by db.FrameWriter and read
// back through db.FrameReader. Save writes the format and Load reads it;
// nothing else does. Each segment's documents appear in the order of its
// persisted view (db.DB.PersistView), which its index section numbers
// them by, so loading them in file order reproduces the saved store. The
// XML round-trips through the parser used at load, so a reloaded
// document has the region encoding and node ordinals its index names.
// Global ids renumber densely in global order.
const fileMagic = "TIXSHD2\n"

// ErrCorruptSnapshot marks every snapshot integrity failure: a file of
// another format, truncation, a checksum mismatch, trailing garbage, an
// implausible count or length, a document that does not parse, and an
// index section whose blocks do not validate. Test with errors.Is.
var ErrCorruptSnapshot = errors.New("shard: corrupt snapshot file")

// MaxShards is the most segments a database holds — far above any real
// deployment, low enough that the empty segments a corrupted count makes
// Load build stay small. New caps Options.Shards at it, Reshard refuses
// more, and a snapshot declaring more is corrupt, so every database Save
// writes opens again.
const MaxShards = 1 << 12

// liveLocked lists the live documents in global order, what Save writes
// and Reshard loads, and counts the burned slots it skips. A global id is
// live while its name still routes to it. Caller holds s.mu.
func (s *DB) liveLocked() (live []docRef, burned int) {
	live = make([]docRef, 0, len(s.byName))
	for gid, ref := range s.docs {
		switch {
		case ref.shard < 0:
			burned++
		case s.byName[s.names[gid]] == storage.DocID(gid):
			live = append(live, ref)
		}
	}
	return live, burned
}

// Save writes the snapshot file to w. It holds the routing lock
// throughout, so no Add, Update or Delete lands between the document
// records and the index sections they must agree with.
func (s *DB) Save(w io.Writer) error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	live, burned := s.liveLocked()
	if burned > 0 {
		return fmt.Errorf("shard: save: %d burned global id slots (drifted replica; re-sync from a healthy copy instead of saving)", burned)
	}
	locals := make([][]storage.DocID, len(s.segs))
	for _, ref := range live {
		locals[ref.shard] = append(locals[ref.shard], ref.local)
	}
	docs := make([][]*storage.Document, len(s.segs))
	idxs := make([]*index.Index, len(s.segs))
	for i, seg := range s.segs {
		var err error
		if docs[i], idxs[i], err = seg.PersistView(locals[i]); err != nil {
			return err
		}
	}

	fw := db.NewFrameWriter(w)
	_, _ = fw.WriteString(fileMagic)
	_ = fw.WriteByte(byte(s.opts.Strategy))
	fw.PutUvarint(uint64(len(s.segs)))
	stem := byte(0)
	if s.opts.Stemming {
		stem = 1
	}
	_ = fw.WriteByte(stem)
	fw.PutUvarint(uint64(len(s.opts.Stopwords)))
	for _, sw := range s.opts.Stopwords {
		fw.PutString(sw)
	}
	fw.PutUvarint(uint64(len(live)))
	var xml []byte // one buffer for every document's XML
	for _, ref := range live {
		doc := docs[ref.shard][0]
		docs[ref.shard] = docs[ref.shard][1:]
		fw.PutUvarint(uint64(ref.shard))
		fw.PutString(doc.Name)
		xml = xmltree.AppendXML(xml[:0], doc.Root, true)
		fw.PutUvarint(uint64(len(xml)))
		_, _ = fw.Write(xml)
	}
	for _, idx := range idxs {
		if err := db.WriteIndex(fw, idx); err != nil {
			return err
		}
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

// Load reads a snapshot written by Save from r, which it reads to the
// end. Every way the input can fail to be one wraps ErrCorruptSnapshot.
func Load(r io.Reader) (*DB, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("shard: load: %w", err)
	}
	return load(data)
}

// OpenFile reads a snapshot file written by SaveFile. A file of any
// other format is rejected with ErrCorruptSnapshot.
func OpenFile(path string) (*DB, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("shard: %w", err)
	}
	return load(data)
}

// load opens the snapshot in data. The payload is summed once, and every
// record decoded with the checks that need file order (header, shard
// range, duplicate names, skip entries); each document enters the routing
// tables as it is read. GOMAXPROCS workers then parse the documents and
// validate the posting lists, and last the documents are loaded and the
// indexes installed in file order, so the first bad record is reported.
func load(data []byte) (*DB, error) {
	fr, err := db.NewFrameReader(data, fileMagic, "shard: load", ErrCorruptSnapshot)
	if err != nil {
		return nil, err
	}
	strat, nShards, stem := fr.Byte(), fr.Uvarint(), fr.Byte()
	var stopwords []string
	for i, n := uint64(0), fr.Uvarint(); i < n && fr.Err() == nil; i++ {
		stopwords = append(stopwords, fr.Text())
	}
	switch {
	case fr.Err() != nil:
		return nil, fr.Err()
	case Strategy(strat) > RoundRobin || stem > 1 || nShards < 1 || nShards > MaxShards:
		return nil, fr.Corrupt(fmt.Sprintf("implausible header: strategy %d, stemming %d, %d shards", strat, stem, nShards), nil)
	}
	s := New(Options{Shards: int(nShards), Strategy: Strategy(strat), Stemming: stem == 1, Stopwords: stopwords})
	var xmls [][]byte // each document's XML, a slice of data
	for i, n := uint64(0), fr.Uvarint(); i < n && fr.Err() == nil; i++ {
		sh, name, xml := fr.Uvarint(), fr.Text(), fr.Bytes(fr.Uvarint())
		_, dup := s.byName[name]
		switch {
		case sh >= nShards:
			fr.Fail(fmt.Sprintf("document %q on shard %d of %d", name, sh, nShards), nil)
		case dup:
			fr.Fail(fmt.Sprintf("duplicate document %q", name), nil)
		case fr.Err() == nil:
			s.track(name, int(sh), storage.DocID(len(s.globalOf[sh])))
			xmls = append(xmls, xml)
		}
	}
	var secs []*db.IndexSection
	for i := 0; i < len(s.segs) && fr.Err() == nil; i++ {
		secs = append(secs, db.DecodeIndex(fr, len(s.globalOf[i])))
	}

	roots, errs := make([]*xmltree.Node, len(xmls)), make([]error, len(xmls))
	parallel(len(xmls), func(k int) {
		if roots[k], errs[k] = xmltree.Parse(bytes.NewReader(xmls[k])); errs[k] != nil {
			errs[k] = fmt.Errorf("db: load %s: %w", s.names[k], errs[k])
		}
	})
	for _, sec := range secs {
		parallel(sec.Lists(), sec.Validate)
	}
	for k, err := range errs {
		if err == nil {
			err = s.segs[s.docs[k].shard].LoadTree(s.names[k], roots[k])
		}
		if err != nil {
			return nil, fr.Corrupt(fmt.Sprintf("document %q", s.names[k]), err)
		}
	}
	for i, sec := range secs {
		if err := s.segs[i].InstallIndex(sec); err != nil {
			return nil, err
		}
	}
	if err := fr.Done(); err != nil {
		return nil, err
	}
	for i := range s.segs {
		s.shardGauge(i)
	}
	return s, nil
}

// parallel calls do(0), …, do(n-1) on GOMAXPROCS workers, which take the
// next index from one shared counter until none is left.
func parallel(n int, do func(int)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for range min(runtime.GOMAXPROCS(0), n) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := int(next.Add(1) - 1); k < n; k = int(next.Add(1) - 1) {
				do(k)
			}
		}()
	}
	wg.Wait()
}

// Reshard redistributes the live corpus across n shards under the given
// strategy, reusing the already-parsed document trees: the documents Save
// would write, in the same order. Indexes are rebuilt lazily (or via Warm)
// on the new instance, which records into a metrics registry of its own.
func (s *DB) Reshard(n int, strategy Strategy) (*DB, error) {
	if n > MaxShards {
		return nil, fmt.Errorf("shard: reshard: %d shards, more than %d", n, MaxShards)
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := New(Options{
		Shards:    n,
		Strategy:  strategy,
		Stemming:  s.opts.Stemming,
		Stopwords: s.opts.Stopwords,
		Metrics:   metrics.NewRegistry(),
		Limits:    s.opts.Limits,
	})
	live, _ := s.liveLocked()
	for _, ref := range live {
		doc := s.segs[ref.shard].Store().Doc(ref.local)
		if doc == nil {
			return nil, fmt.Errorf("shard: reshard: document %d missing from segment %d", ref.local, ref.shard)
		}
		// out is not shared and the names are distinct: no lock, no check.
		i := out.pickShard(doc.Name)
		if err := out.segs[i].LoadTree(doc.Name, doc.Root); err != nil {
			return nil, fmt.Errorf("shard: reshard: %w", err)
		}
		out.track(doc.Name, i, storage.DocID(len(out.globalOf[i])))
	}
	for i := range out.segs {
		out.shardGauge(i)
	}
	return out, nil
}
