package db

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash"
	"hash/crc32"
	"io"
	"math"
	"os"

	"repro/internal/index"
	"repro/internal/postings"
	"repro/internal/storage"
	"repro/internal/xmltree"
)

// Database file format:
//
//	magic   "TIXDB1\n" (v1) or "TIXDB2\n" (v2)
//	options stemming byte (0/1), uvarint stopword count, stopwords
//	docs    uvarint count; per doc: name, serialized XML
//	index   presence byte; if 1 the version-specific index section
//	trailer "TIXSUM1\n" + 4-byte little-endian IEEE CRC32 of every byte
//	        before the trailer
//
// v1 index section: uvarint term count; per term: the term, uvarint
// posting count, postings as uvarint (doc, node, pos, offset) with pos
// delta-encoded within a (term, doc) run.
//
// v2 index section stores each term's encoded blocks verbatim, so loading
// adopts the bytes without re-encoding: uvarint term count; per term: the
// term, uvarint posting count, uvarint block count, then per block the
// skip entry as uvarints (posting count in block, payload byte length,
// first doc, last doc − first doc, last pos, max per-doc frequency),
// followed by the concatenated block payloads. Every block is fully
// validated by postings.NewBlockList at load, so a truncated or tampered
// v2 payload is rejected even when the trailer is missing.
//
// Strings are uvarint length + bytes. The XML serialization round-trips
// through the same parser used at load time, so the region encoding and
// node ordinals of a reloaded database are identical to the original's.
//
// The integrity trailer is backward and forward compatible: files written
// before it existed load cleanly (a file ending exactly at the payload is
// accepted as legacy), and old loaders that stop at the payload simply
// never read the trailing 12 bytes. A present-but-partial trailer, a
// checksum mismatch, or bytes after the trailer are rejected with an error
// wrapping ErrCorruptSnapshot. Save writes v2 only; the binaries persist
// through the sharded container (internal/shard), which embeds one v2
// segment per shard. Load dispatches on the magic, so legacy v1 and v2
// single-store files keep loading (v1 postings are block-encoded on
// restore).
const fileMagic = "TIXDB1\n"

// fileMagicV2 marks snapshots whose index section stores encoded
// posting blocks verbatim.
const fileMagicV2 = "TIXDB2\n"

// sumMagic introduces the integrity trailer.
const sumMagic = "TIXSUM1\n"

// ErrCorruptSnapshot marks database-file integrity failures: a truncated
// trailer, a checksum mismatch, trailing garbage, or an invalid encoded
// posting block. Test with errors.Is.
var ErrCorruptSnapshot = errors.New("db: corrupt database file")

// persistViewLocked resolves the mutable live layer into a persistable
// (documents, flat index) pair. Caller holds d.mu, so the view is a
// consistent point-in-time cut: no mutation can land mid-save.
//
//   - Never indexed: just the documents, no index section.
//   - Mutated without deletes: fold memtables and segments into one flat
//     segment (document ids are already dense), then save its blocks
//     verbatim.
//   - With deletes: reload renumbers documents densely, so the sparse
//     surviving ids cannot be written as-is. Rebuild a fresh store holding
//     only visible documents (re-densifying ids in original order) and
//     index it from scratch.
func (d *DB) persistViewLocked() ([]*storage.Document, *index.Index, error) {
	l := d.live.Load()
	if l == nil {
		return d.store.Docs(), nil, nil
	}
	if l.DeadCount() == 0 {
		l.Compact()
		return d.store.Docs(), l.Snapshot(), nil
	}
	fresh := storage.NewStore()
	for _, doc := range d.store.Docs() {
		if l.IsDead(doc.ID) {
			continue
		}
		if _, err := fresh.AddTree(doc.Name, doc.Root); err != nil {
			return nil, nil, fmt.Errorf("db: save: %w", err)
		}
	}
	idx, err := index.BuildChecked(fresh, d.tok)
	if err != nil {
		return nil, nil, fmt.Errorf("db: save: %w", err)
	}
	return fresh.Docs(), idx, nil
}

// Save writes the database — documents, options and the inverted index —
// to w in the v2 format (encoded posting blocks verbatim), followed by
// the CRC32 integrity trailer.
func (d *DB) Save(w io.Writer) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	docs, idx, err := d.persistViewLocked()
	if err != nil {
		return err
	}
	h := crc32.NewIEEE()
	// Everything flushed through bw is hashed; the trailer itself is
	// written to w directly afterwards, so it stays outside its own sum.
	bw := bufio.NewWriter(io.MultiWriter(w, h))
	if _, err := bw.WriteString(fileMagicV2); err != nil {
		return err
	}
	// Options.
	stem := byte(0)
	if d.opts.Stemming {
		stem = 1
	}
	if err := bw.WriteByte(stem); err != nil {
		return err
	}
	writeUvarint(bw, uint64(len(d.opts.Stopwords)))
	for _, sw := range d.opts.Stopwords {
		writeString(bw, sw)
	}
	// Documents.
	writeUvarint(bw, uint64(len(docs)))
	for _, doc := range docs {
		writeString(bw, doc.Name)
		writeString(bw, xmltree.XMLString(doc.Root))
	}
	// Index.
	if idx == nil {
		if err := bw.WriteByte(0); err != nil {
			return err
		}
	} else {
		if err := bw.WriteByte(1); err != nil {
			return err
		}
		if err := writeIndexV2(bw, idx); err != nil {
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	var tr [len(sumMagic) + 4]byte
	copy(tr[:], sumMagic)
	binary.LittleEndian.PutUint32(tr[len(sumMagic):], h.Sum32())
	_, err = w.Write(tr[:])
	return err
}

// writeIndexV2 emits the block-compressed index section: skip tables as
// uvarints, block payloads verbatim — no re-encode at load.
func writeIndexV2(bw *bufio.Writer, idx *index.Index) error {
	terms := idx.TermsByFreq()
	writeUvarint(bw, uint64(len(terms)))
	for _, term := range terms {
		writeString(bw, term)
		bl := idx.BlockList(term)
		if bl == nil {
			// persistViewLocked always hands over a flat index; a merged
			// list here is an invariant violation, not a user error.
			return fmt.Errorf("db: save: no flat block list for %q", term)
		}
		skips := bl.Skips()
		payload := bl.Payload()
		writeUvarint(bw, uint64(bl.Len()))
		writeUvarint(bw, uint64(len(skips)))
		prevEnd := uint32(0)
		for bi, sk := range skips {
			blockEnd := len(payload)
			if bi+1 < len(skips) {
				blockEnd = int(skips[bi+1].Off)
			}
			writeUvarint(bw, uint64(sk.End-prevEnd))
			writeUvarint(bw, uint64(blockEnd)-uint64(sk.Off))
			writeUvarint(bw, uint64(sk.FirstDoc))
			writeUvarint(bw, uint64(sk.LastDoc-sk.FirstDoc))
			writeUvarint(bw, uint64(sk.LastPos))
			writeUvarint(bw, uint64(sk.MaxFreq))
			prevEnd = sk.End
		}
		if _, err := bw.Write(payload); err != nil {
			return err
		}
	}
	return nil
}

// byteReader is the reading interface the loader consumes through: bulk
// reads for strings, single-byte reads for uvarints.
type byteReader interface {
	io.Reader
	io.ByteReader
}

// crcReader hashes exactly the bytes its consumer reads. It must wrap the
// buffered reader (not sit underneath it): bufio's readahead would
// otherwise pull trailer bytes into the payload hash.
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

// verifyTrailer checks the integrity trailer after the payload has been
// fully consumed (and hashed) through the crcReader. A clean EOF right at
// the payload boundary is a legacy pre-trailer file and is accepted.
func verifyTrailer(br *bufio.Reader, h hash.Hash32) error {
	tr := make([]byte, len(sumMagic)+4)
	n, err := io.ReadFull(br, tr)
	switch {
	case errors.Is(err, io.EOF):
		return nil // legacy file without a trailer
	case err != nil:
		return fmt.Errorf("db: load: truncated integrity trailer (%d of %d bytes): %w", n, len(tr), ErrCorruptSnapshot)
	}
	if string(tr[:len(sumMagic)]) != sumMagic {
		return fmt.Errorf("db: load: unexpected data after payload (missing %q trailer): %w", sumMagic, ErrCorruptSnapshot)
	}
	want := binary.LittleEndian.Uint32(tr[len(sumMagic):])
	if got := h.Sum32(); got != want {
		return fmt.Errorf("db: load: checksum mismatch (file %08x, payload %08x): %w", want, got, ErrCorruptSnapshot)
	}
	if _, err := br.ReadByte(); !errors.Is(err, io.EOF) {
		return fmt.Errorf("db: load: data after integrity trailer: %w", ErrCorruptSnapshot)
	}
	return nil
}

// Load reads a single-store snapshot — a segment written by Save, or a
// legacy v1 file — dispatching on the magic and verifying the integrity
// trailer when present.
func Load(r io.Reader) (*DB, error) {
	raw := bufio.NewReader(r)
	br := &crcReader{r: raw, h: crc32.NewIEEE()}
	magic := make([]byte, len(fileMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("db: load: %w", err)
	}
	var loadIndex func(*DB, *crcReader) error
	switch string(magic) {
	case fileMagic:
		loadIndex = loadIndexV1
	case fileMagicV2:
		loadIndex = loadIndexV2
	default:
		return nil, fmt.Errorf("db: load: bad magic %q", magic)
	}
	stem, err := br.ReadByte()
	if err != nil {
		return nil, fmt.Errorf("db: load: %w", err)
	}
	nStop, err := readUvarint(br)
	if err != nil {
		return nil, err
	}
	opts := Options{Stemming: stem == 1}
	for i := uint64(0); i < nStop; i++ {
		sw, err := readString(br)
		if err != nil {
			return nil, err
		}
		opts.Stopwords = append(opts.Stopwords, sw)
	}
	d := New(opts)

	nDocs, err := readUvarint(br)
	if err != nil {
		return nil, err
	}
	for i := uint64(0); i < nDocs; i++ {
		name, err := readString(br)
		if err != nil {
			return nil, err
		}
		xmlSrc, err := readString(br)
		if err != nil {
			return nil, err
		}
		if err := d.LoadString(name, xmlSrc); err != nil {
			return nil, err
		}
	}

	hasIndex, err := br.ReadByte()
	if err != nil {
		return nil, fmt.Errorf("db: load: %w", err)
	}
	if hasIndex != 0 {
		if err := loadIndex(d, br); err != nil {
			return nil, err
		}
	}
	if err := verifyTrailer(raw, br.h); err != nil {
		return nil, err
	}
	return d, nil
}

// loadIndexV1 reads the raw-posting index section and block-encodes it
// via index.Restore.
func loadIndexV1(d *DB, br *crcReader) error {
	nTerms, err := readUvarint(br)
	if err != nil {
		return err
	}
	raw := make(map[string][]index.Posting, nTerms)
	for i := uint64(0); i < nTerms; i++ {
		term, err := readString(br)
		if err != nil {
			return err
		}
		nPost, err := readUvarint(br)
		if err != nil {
			return err
		}
		const sanity = 1 << 31
		if nPost > sanity {
			return fmt.Errorf("db: load: implausible posting count %d for %q", nPost, term)
		}
		// Cap the preallocation: a lying count on a corrupted file would
		// otherwise attempt a multi-GiB make before any read fails.
		ps := make([]index.Posting, 0, min(nPost, 1<<16))
		lastDoc := storage.DocID(-1)
		lastPos := uint32(0)
		for j := uint64(0); j < nPost; j++ {
			docV, err := readUvarint(br)
			if err != nil {
				return err
			}
			nodeV, err := readUvarint(br)
			if err != nil {
				return err
			}
			posV, err := readUvarint(br)
			if err != nil {
				return err
			}
			offV, err := readUvarint(br)
			if err != nil {
				return err
			}
			doc := storage.DocID(docV)
			var pos uint32
			if doc != lastDoc {
				pos = uint32(posV)
			} else {
				pos = lastPos + uint32(posV)
			}
			lastDoc, lastPos = doc, pos
			ps = append(ps, index.Posting{
				Doc:    doc,
				Node:   int32(nodeV),
				Pos:    pos,
				Offset: uint32(offV),
			})
		}
		raw[term] = ps
	}
	idx, err := index.Restore(d.store, d.tok, raw)
	if err != nil {
		return fmt.Errorf("db: load: %w", err)
	}
	d.adoptIndex(idx)
	return nil
}

// loadIndexV2 reads the block-compressed index section: skip tables are
// reconstructed from their uvarint deltas and the payload bytes adopted
// verbatim; postings.NewBlockList fully validates every block, so a
// malformed section is rejected here rather than during query decode.
func loadIndexV2(d *DB, br *crcReader) error {
	nTerms, err := readUvarint(br)
	if err != nil {
		return err
	}
	lists := make(map[string]*postings.BlockList, nTerms)
	for i := uint64(0); i < nTerms; i++ {
		term, err := readString(br)
		if err != nil {
			return err
		}
		nPost, err := readUvarint(br)
		if err != nil {
			return err
		}
		const sanity = 1 << 31
		if nPost > sanity {
			return fmt.Errorf("db: load: implausible posting count %d for %q", nPost, term)
		}
		nBlocks, err := readUvarint(br)
		if err != nil {
			return err
		}
		if nBlocks > nPost {
			return fmt.Errorf("db: load: %d blocks for %d postings of %q: %w", nBlocks, nPost, term, ErrCorruptSnapshot)
		}
		skips := make([]postings.Skip, 0, min(nBlocks, 1<<16))
		var off, end uint64
		for b := uint64(0); b < nBlocks; b++ {
			var v [6]uint64
			for k := range v {
				if v[k], err = readUvarint(br); err != nil {
					return err
				}
			}
			cnt, byteLen, firstDoc, docSpan, lastPos, maxFreq := v[0], v[1], v[2], v[3], v[4], v[5]
			if cnt < 1 || cnt > postings.BlockSize {
				return fmt.Errorf("db: load: block %d of %q holds %d postings: %w", b, term, cnt, ErrCorruptSnapshot)
			}
			end += cnt
			if end > nPost {
				return fmt.Errorf("db: load: blocks of %q cover more than %d postings: %w", term, nPost, ErrCorruptSnapshot)
			}
			if byteLen == 0 || off+byteLen > math.MaxUint32 {
				return fmt.Errorf("db: load: implausible block payload length %d for %q: %w", byteLen, term, ErrCorruptSnapshot)
			}
			if firstDoc+docSpan >= math.MaxInt32 {
				return fmt.Errorf("db: load: implausible document range for %q: %w", term, ErrCorruptSnapshot)
			}
			if lastPos > math.MaxUint32 || maxFreq > cnt {
				return fmt.Errorf("db: load: implausible skip entry for %q: %w", term, ErrCorruptSnapshot)
			}
			skips = append(skips, postings.Skip{
				FirstDoc: storage.DocID(firstDoc),
				LastDoc:  storage.DocID(firstDoc + docSpan),
				LastPos:  uint32(lastPos),
				MaxFreq:  uint32(maxFreq),
				Off:      uint32(off),
				End:      uint32(end),
			})
			off += byteLen
		}
		if end != nPost {
			return fmt.Errorf("db: load: blocks of %q cover %d of %d postings: %w", term, end, nPost, ErrCorruptSnapshot)
		}
		payload, err := readBytes(br, off)
		if err != nil {
			return err
		}
		bl, err := postings.NewBlockList(int(nPost), skips, payload)
		if err != nil {
			return fmt.Errorf("db: load: postings for %q: %w: %w", term, ErrCorruptSnapshot, err)
		}
		lists[term] = bl
	}
	d.adoptIndex(index.RestoreBlocks(d.store, d.tok, lists))
	return nil
}

// LoadDBFile reads a legacy single-store snapshot file (see Load).
func LoadDBFile(path string) (*DB, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("db: %w", err)
	}
	defer f.Close()
	return Load(f)
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
		return 0, fmt.Errorf("db: load: %w", err)
	}
	return v, nil
}

// readBytes reads exactly n bytes in bounded chunks: a lying length on a
// corrupted file must not force a giant up-front allocation before the
// short read surfaces.
func readBytes(r byteReader, n uint64) ([]byte, error) {
	const chunk = 1 << 16
	buf := make([]byte, 0, min(n, chunk))
	for remaining := n; remaining > 0; {
		k := min(remaining, chunk)
		start := len(buf)
		buf = append(buf, make([]byte, k)...)
		if _, err := io.ReadFull(r, buf[start:]); err != nil {
			return nil, fmt.Errorf("db: load: %w", err)
		}
		remaining -= k
	}
	return buf, nil
}

func readString(r byteReader) (string, error) {
	n, err := readUvarint(r)
	if err != nil {
		return "", err
	}
	const maxString = 1 << 30
	if n > maxString {
		return "", fmt.Errorf("db: load: implausible string length %d", n)
	}
	buf, err := readBytes(r, n)
	if err != nil {
		return "", err
	}
	return string(buf), nil
}
