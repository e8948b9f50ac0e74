package shard

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash"
	"hash/crc32"
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
//	docs     uvarint count; per doc (global order): name, uvarint shard
//	segments per shard: uvarint byte length, then a complete segment
//	         snapshot (db.Save output — TIXDB2 with block-compressed
//	         postings and its own "TIXSUM1\n"+CRC32 trailer intact;
//	         the loader also accepts TIXDB1 segments)
//	trailer  "TIXSUM1\n" + 4-byte little-endian IEEE CRC32 of every byte
//	         before the trailer
//
// Integrity is two-layer: the container trailer covers the whole file,
// and each embedded segment still carries (and re-verifies through
// db.Load) its own trailer, so a flipped bit is attributed to the shard
// it corrupted. Unlike the legacy single-store format, the container
// trailer is not optional.
const fileMagic = "TIXSHD1\n"

// sumMagic introduces the integrity trailer (shared with the embedded
// segment formats).
const sumMagic = "TIXSUM1\n"

// ErrCorruptSnapshot marks sharded-container integrity failures. Test
// with errors.Is; segment-level corruption surfaces as the wrapped
// db.ErrCorruptSnapshot instead.
var ErrCorruptSnapshot = errors.New("shard: corrupt sharded database file")

// maxShards bounds the shard count a container may declare — far above
// any real deployment, low enough that a corrupted count cannot drive
// allocations.
const maxShards = 1 << 16

// Save writes the sharded database — layout, document placement, and one
// complete db.Save snapshot per segment — to w, followed by the container
// integrity trailer. It is the only snapshot writer the binaries use: a
// legacy file opened through OpenFile is re-saved as a one-shard
// container.
func (s *DB) Save(w io.Writer) error {
	h := crc32.NewIEEE()
	bw := bufio.NewWriter(io.MultiWriter(w, h))
	if _, err := bw.WriteString(fileMagic); err != nil {
		return err
	}
	if err := bw.WriteByte(byte(s.opts.Strategy)); err != nil {
		return err
	}
	writeUvarint(bw, uint64(len(s.segs)))
	writeUvarint(bw, uint64(len(s.docs)))
	for gid, ref := range s.docs {
		if ref.shard < 0 {
			return fmt.Errorf("shard: save: global id %d is a burned slot (drifted replica; re-sync from a healthy copy instead of saving)", gid)
		}
		writeString(bw, s.names[gid])
		writeUvarint(bw, uint64(ref.shard))
	}
	for _, seg := range s.segs {
		var buf bytes.Buffer
		if err := seg.Save(&buf); err != nil {
			return err
		}
		writeUvarint(bw, uint64(buf.Len()))
		if _, err := bw.Write(buf.Bytes()); err != nil {
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	var tr [len(sumMagic) + 4]byte
	copy(tr[:], sumMagic)
	binary.LittleEndian.PutUint32(tr[len(sumMagic):], h.Sum32())
	_, err := w.Write(tr[:])
	return err
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
	raw := bufio.NewReader(r)
	br := &crcReader{r: raw, h: crc32.NewIEEE()}
	magic := make([]byte, len(fileMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("shard: load: %w", err)
	}
	if string(magic) != fileMagic {
		return nil, fmt.Errorf("shard: load: bad magic %q", magic)
	}
	strat, err := br.ReadByte()
	if err != nil {
		return nil, fmt.Errorf("shard: load: %w", err)
	}
	nShards, err := readUvarint(br)
	if err != nil {
		return nil, err
	}
	if nShards < 1 || nShards > maxShards {
		return nil, fmt.Errorf("shard: load: implausible shard count %d: %w", nShards, ErrCorruptSnapshot)
	}
	nDocs, err := readUvarint(br)
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
		name, err := readString(br)
		if err != nil {
			return nil, err
		}
		sh, err := readUvarint(br)
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
		segLen, err := readUvarint(br)
		if err != nil {
			return nil, err
		}
		if segLen > 1<<31 {
			return nil, fmt.Errorf("shard: load: implausible segment length %d: %w", segLen, ErrCorruptSnapshot)
		}
		seg, err := db.Load(io.LimitReader(br, int64(segLen)))
		if err != nil {
			return nil, fmt.Errorf("shard: load: segment %d: %w", i, err)
		}
		segs[i] = seg
	}
	if err := verifyTrailer(raw, br.h); err != nil {
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

// LoadFile reads a sharded database file written by SaveFile.
func LoadFile(path string) (*DB, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("shard: %w", err)
	}
	defer f.Close()
	return Load(f)
}

// IsShardedFile reports whether path begins with the sharded container
// magic (as opposed to a legacy single-store TIXDB1/TIXDB2 snapshot).
func IsShardedFile(path string) (bool, error) {
	f, err := os.Open(path)
	if err != nil {
		return false, fmt.Errorf("shard: %w", err)
	}
	defer f.Close()
	magic := make([]byte, len(fileMagic))
	if _, err := io.ReadFull(f, magic); err != nil {
		return false, nil // too short to be a sharded container
	}
	return string(magic) == fileMagic, nil
}

// OpenFile opens either snapshot format behind the sharded facade: a
// sharded container loads directly; a legacy single-store snapshot
// (TIXDB1 or TIXDB2) is wrapped as one segment.
func OpenFile(path string) (*DB, error) {
	sharded, err := IsShardedFile(path)
	if err != nil {
		return nil, err
	}
	if sharded {
		return LoadFile(path)
	}
	d, err := db.LoadDBFile(path)
	if err != nil {
		return nil, err
	}
	return Wrap(d), nil
}

// Reshard redistributes the corpus across n shards under the given
// strategy, reusing the already-parsed document trees. Indexes are
// rebuilt lazily (or via Warm) on the new instance.
func (s *DB) Reshard(n int, strategy Strategy) (*DB, error) {
	out := New(Options{
		Shards:    n,
		Strategy:  strategy,
		Stemming:  s.opts.Stemming,
		Stopwords: s.opts.Stopwords,
		Metrics:   s.opts.Metrics,
		Limits:    s.opts.Limits,
	})
	for gid, ref := range s.docs {
		doc := s.segs[ref.shard].Store().Doc(ref.local)
		if doc == nil {
			return nil, fmt.Errorf("shard: reshard: document %q missing from segment %d", s.names[gid], ref.shard)
		}
		if err := out.LoadTree(doc.Name, doc.Root); err != nil {
			return nil, fmt.Errorf("shard: reshard: %w", err)
		}
	}
	return out, nil
}

// --- container primitives (mirroring the segment format's) ---

// byteReader is the reading interface the loader consumes through.
type byteReader interface {
	io.Reader
	io.ByteReader
}

// crcReader hashes exactly the bytes its consumer reads; it wraps the
// buffered reader so readahead cannot pull trailer bytes into the
// payload hash.
type crcReader struct {
	r byteReader
	h hash.Hash32
}

func (c *crcReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.h.Write(p[:n])
	return n, err
}

func (c *crcReader) ReadByte() (byte, error) {
	b, err := c.r.ReadByte()
	if err == nil {
		c.h.Write([]byte{b})
	}
	return b, err
}

// verifyTrailer checks the container trailer after the payload has been
// fully consumed. The sharded format always writes a trailer, so a
// missing one is corruption, not legacy.
func verifyTrailer(br *bufio.Reader, h hash.Hash32) error {
	tr := make([]byte, len(sumMagic)+4)
	if n, err := io.ReadFull(br, tr); err != nil {
		return fmt.Errorf("shard: load: truncated integrity trailer (%d of %d bytes): %w", n, len(tr), ErrCorruptSnapshot)
	}
	if string(tr[:len(sumMagic)]) != sumMagic {
		return fmt.Errorf("shard: load: unexpected data after payload (missing %q trailer): %w", sumMagic, ErrCorruptSnapshot)
	}
	want := binary.LittleEndian.Uint32(tr[len(sumMagic):])
	if got := h.Sum32(); got != want {
		return fmt.Errorf("shard: load: checksum mismatch (file %08x, payload %08x): %w", want, got, ErrCorruptSnapshot)
	}
	if _, err := br.ReadByte(); !errors.Is(err, io.EOF) {
		return fmt.Errorf("shard: load: data after integrity trailer: %w", ErrCorruptSnapshot)
	}
	return nil
}

func writeUvarint(w *bufio.Writer, v uint64) {
	var buf [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(buf[:], v)
	_, _ = w.Write(buf[:n])
}

func writeString(w *bufio.Writer, s string) {
	writeUvarint(w, uint64(len(s)))
	_, _ = w.WriteString(s)
}

func readUvarint(r io.ByteReader) (uint64, error) {
	v, err := binary.ReadUvarint(r)
	if err != nil {
		return 0, fmt.Errorf("shard: load: %w", err)
	}
	return v, nil
}

func readString(r byteReader) (string, error) {
	n, err := readUvarint(r)
	if err != nil {
		return "", err
	}
	const maxString = 1 << 20
	if n > maxString {
		return "", fmt.Errorf("shard: load: implausible string length %d", n)
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(r, buf); err != nil {
		return "", fmt.Errorf("shard: load: %w", err)
	}
	return string(buf), nil
}
