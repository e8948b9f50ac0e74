package db

import (
	"errors"
	"fmt"
	"io"
	"math"

	"repro/internal/index"
	"repro/internal/postings"
	"repro/internal/storage"
	"repro/internal/xmltree"
)

// Segment file format:
//
//	magic   "TIXDB2\n"
//	options stemming byte (0/1), uvarint stopword count, stopwords
//	docs    uvarint count; per doc: name, serialized XML
//	index   presence byte; if 1 the index section below
//	trailer "TIXSUM1\n" + 4-byte little-endian IEEE CRC32 of every byte
//	        before the trailer
//
// The index section stores each term's encoded blocks verbatim, so loading
// adopts the bytes without re-encoding: uvarint term count; per term: the
// term, uvarint posting count, uvarint block count, then per block the
// skip entry as uvarints (posting count in block, payload byte length,
// first doc, last doc − first doc, last pos, max per-doc frequency),
// followed by the concatenated block payloads. Every block is also fully
// validated by postings.NewBlockList at load, so a payload that passes the
// checksum but holds malformed blocks is still rejected.
//
// Strings are uvarint length + bytes. The XML serialization round-trips
// through the same parser used at load time, so the region encoding and
// node ordinals of a reloaded database are identical to the original's.
//
// The trailer is mandatory: a missing or partial trailer, a checksum
// mismatch, or bytes after the trailer are rejected with an error
// wrapping ErrCorruptSnapshot. The binaries never read or write a bare
// segment: they persist through the sharded container (internal/shard),
// which embeds one segment per shard and frames itself with the same
// primitives (frame.go).
const fileMagic = "TIXDB2\n"

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
// to w as a segment snapshot (encoded posting blocks verbatim), sealed by
// the CRC32 integrity trailer.
func (d *DB) Save(w io.Writer) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	docs, idx, err := d.persistViewLocked()
	if err != nil {
		return err
	}
	fw := NewFrameWriter(w)
	_, _ = fw.WriteString(fileMagic)
	stem := byte(0)
	if d.opts.Stemming {
		stem = 1
	}
	_ = fw.WriteByte(stem)
	fw.PutUvarint(uint64(len(d.opts.Stopwords)))
	for _, sw := range d.opts.Stopwords {
		fw.PutString(sw)
	}
	fw.PutUvarint(uint64(len(docs)))
	var xml []byte // one buffer for every document's XML
	for _, doc := range docs {
		fw.PutString(doc.Name)
		xml = xmltree.AppendXML(xml[:0], doc.Root, true)
		fw.PutUvarint(uint64(len(xml)))
		_, _ = fw.Write(xml)
	}
	if idx == nil {
		_ = fw.WriteByte(0)
	} else {
		_ = fw.WriteByte(1)
		if err := writeIndex(fw, idx); err != nil {
			return err
		}
	}
	return fw.Seal()
}

// writeIndex emits the block-compressed index section: skip tables as
// uvarints, block payloads verbatim — no re-encode at load.
func writeIndex(fw *FrameWriter, idx *index.Index) error {
	terms := idx.TermsByFreq()
	fw.PutUvarint(uint64(len(terms)))
	for _, term := range terms {
		fw.PutString(term)
		bl := idx.BlockList(term)
		if bl == nil {
			// persistViewLocked always hands over a flat index; a merged
			// list here is an invariant violation, not a user error.
			return fmt.Errorf("db: save: no flat block list for %q", term)
		}
		skips := bl.Skips()
		payload := bl.Payload()
		fw.PutUvarint(uint64(bl.Len()))
		fw.PutUvarint(uint64(len(skips)))
		prevEnd := uint32(0)
		for bi, sk := range skips {
			blockEnd := len(payload)
			if bi+1 < len(skips) {
				blockEnd = int(skips[bi+1].Off)
			}
			fw.PutUvarint(uint64(sk.End - prevEnd))
			fw.PutUvarint(uint64(blockEnd) - uint64(sk.Off))
			fw.PutUvarint(uint64(sk.FirstDoc))
			fw.PutUvarint(uint64(sk.LastDoc - sk.FirstDoc))
			fw.PutUvarint(uint64(sk.LastPos))
			fw.PutUvarint(uint64(sk.MaxFreq))
			prevEnd = sk.End
		}
		_, _ = fw.Write(payload)
	}
	return nil
}

// Load reads a segment snapshot written by Save, verifying its integrity
// trailer.
func Load(r io.Reader) (*DB, error) {
	fr := NewFrameReader(r, "db: load", 1<<30, ErrCorruptSnapshot)
	if err := fr.Magic(fileMagic); err != nil {
		return nil, err
	}
	stem, err := fr.ReadByte()
	if err != nil {
		return nil, fmt.Errorf("db: load: %w", err)
	}
	nStop, err := fr.Uvarint()
	if err != nil {
		return nil, err
	}
	opts := Options{Stemming: stem == 1}
	for i := uint64(0); i < nStop; i++ {
		sw, err := fr.Text()
		if err != nil {
			return nil, err
		}
		opts.Stopwords = append(opts.Stopwords, sw)
	}
	d := New(opts)

	nDocs, err := fr.Uvarint()
	if err != nil {
		return nil, err
	}
	for i := uint64(0); i < nDocs; i++ {
		name, err := fr.Text()
		if err != nil {
			return nil, err
		}
		xmlSrc, err := fr.Text()
		if err != nil {
			return nil, err
		}
		if err := d.LoadString(name, xmlSrc); err != nil {
			return nil, err
		}
	}

	hasIndex, err := fr.ReadByte()
	if err != nil {
		return nil, fmt.Errorf("db: load: %w", err)
	}
	if hasIndex != 0 {
		if err := loadIndex(d, fr); err != nil {
			return nil, err
		}
	}
	if err := fr.Verify(); err != nil {
		return nil, err
	}
	return d, nil
}

// loadIndex reads the block-compressed index section: skip tables are
// reconstructed from their uvarint deltas and the payload bytes adopted
// verbatim; postings.NewBlockList fully validates every block, so a
// malformed section is rejected here rather than during query decode.
func loadIndex(d *DB, fr *FrameReader) error {
	nTerms, err := fr.Uvarint()
	if err != nil {
		return err
	}
	lists := make(map[string]*postings.BlockList, nTerms)
	for i := uint64(0); i < nTerms; i++ {
		term, err := fr.Text()
		if err != nil {
			return err
		}
		nPost, err := fr.Uvarint()
		if err != nil {
			return err
		}
		const sanity = 1 << 31
		if nPost > sanity {
			return fmt.Errorf("db: load: implausible posting count %d for %q", nPost, term)
		}
		nBlocks, err := fr.Uvarint()
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
				if v[k], err = fr.Uvarint(); err != nil {
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
		payload, err := fr.Bytes(off)
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
