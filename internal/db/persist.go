package db

import (
	"fmt"
	"math"

	"repro/internal/index"
	"repro/internal/postings"
	"repro/internal/storage"
)

// The pieces of a segment that the snapshot file embeds: the segment's
// persistable view and its index section. The file itself — header,
// document records, one index section per segment, trailer — is written
// and read in one place, internal/shard/persist.go.
//
// An index section is a presence byte, 0 for a segment that never built
// its index (a reload builds it lazily) and 1 before the section:
// uvarint term count; per term the term, uvarint posting count, uvarint
// block count, then per block the skip entry as uvarints (posting count
// in block, payload byte length, first doc, last doc − first doc, last
// pos, max per-doc frequency), followed by the concatenated block
// payloads. Loading adopts the payload bytes without re-encoding, and
// postings.NewBlockList validates every block, so a section that passes
// the checksum but holds malformed blocks is still rejected.

// PersistView returns the segment as a snapshot holds it: the documents at
// locals, in that order, and a flat index in which the k-th of them is
// document k — or a nil index when the segment never built one. The
// caller writes those documents in that order, and a reload loads them in
// it, so the reloaded store and the saved index agree by construction.
// It holds the mutation lock, so the view is one point-in-time cut.
//
//   - locals is the whole store in order, so no document ever died: the
//     live layers fold into one flat segment, whose blocks are saved
//     verbatim.
//   - Otherwise (deletes, superseded versions, another order): a fresh
//     store holding the documents in locals order is indexed from
//     scratch.
func (d *DB) PersistView(locals []storage.DocID) ([]*storage.Document, *index.Index, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	all := d.store.Docs()
	if isPrefixOrder(locals, len(all)) {
		l := d.live.Load()
		if l == nil {
			return all, nil, nil
		}
		l.Compact()
		return all, l.Snapshot(), nil
	}
	docs := make([]*storage.Document, len(locals))
	fresh := storage.NewStore()
	for k, local := range locals {
		if docs[k] = d.store.Doc(local); docs[k] == nil {
			return nil, nil, fmt.Errorf("db: save: no document %d", local)
		}
		if _, err := fresh.AddTree(docs[k].Name, docs[k].Root); err != nil {
			return nil, nil, fmt.Errorf("db: save: %w", err)
		}
	}
	idx, err := index.BuildChecked(fresh, d.tok)
	if err != nil {
		return nil, nil, fmt.Errorf("db: save: %w", err)
	}
	return docs, idx, nil
}

// isPrefixOrder reports whether locals is exactly 0, 1, …, n-1.
func isPrefixOrder(locals []storage.DocID, n int) bool {
	if len(locals) != n {
		return false
	}
	for k, local := range locals {
		if int(local) != k {
			return false
		}
	}
	return true
}

// WriteIndex writes the index section of idx, a flat index as PersistView
// returns it (nil for none): skip tables as uvarints, block payloads
// verbatim.
func WriteIndex(fw *FrameWriter, idx *index.Index) error {
	if idx == nil {
		return fw.WriteByte(0)
	}
	_ = fw.WriteByte(1)
	terms := idx.TermsByFreq()
	fw.PutUvarint(uint64(len(terms)))
	for _, term := range terms {
		fw.PutString(term)
		bl := idx.BlockList(term)
		if bl == nil {
			// PersistView always hands over a flat index; a merged list
			// here is an invariant violation, not a user error.
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

// ReadIndex reads an index section written by WriteIndex and installs it
// as the segment's index. The segment must already hold the documents the
// section was written over, in their saved order. Skip tables are rebuilt
// from their uvarints and payloads adopted verbatim; every block is
// validated here rather than at query decode, and a section that does not
// fit the segment fails with fr's corrupt sentinel.
func (d *DB) ReadIndex(fr *FrameReader) error {
	has, err := fr.Byte()
	if err != nil || has == 0 {
		return err
	}
	if has != 1 {
		return fr.Corrupt(fmt.Sprintf("index presence byte %d", has), nil)
	}
	numDocs := uint64(d.store.NumDocs())
	nTerms, err := fr.Uvarint()
	if err != nil {
		return err
	}
	lists := make(map[string]*postings.BlockList, min(nTerms, 1<<16))
	for i := uint64(0); i < nTerms; i++ {
		term, err := fr.Text()
		if err != nil {
			return err
		}
		if _, dup := lists[term]; dup {
			return fr.Corrupt(fmt.Sprintf("term %q listed twice", term), nil)
		}
		nPost, err := fr.Uvarint()
		if err != nil {
			return err
		}
		nBlocks, err := fr.Uvarint()
		if err != nil {
			return err
		}
		if nPost > math.MaxInt32 || nBlocks > nPost {
			return fr.Corrupt(fmt.Sprintf("%d blocks for %d postings of %q", nBlocks, nPost, term), nil)
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
			end += cnt
			switch {
			case cnt < 1 || cnt > postings.BlockSize || end > nPost:
				return fr.Corrupt(fmt.Sprintf("block %d of %q holds %d postings", b, term, cnt), nil)
			case byteLen == 0 || off+byteLen > math.MaxUint32:
				return fr.Corrupt(fmt.Sprintf("block %d of %q is %d bytes", b, term, byteLen), nil)
			case docSpan >= numDocs || firstDoc >= numDocs-docSpan:
				return fr.Corrupt(fmt.Sprintf("block %d of %q names documents past %d", b, term, numDocs), nil)
			case lastPos > math.MaxUint32 || maxFreq > cnt:
				return fr.Corrupt(fmt.Sprintf("implausible skip entry %d of %q", b, term), nil)
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
			return fr.Corrupt(fmt.Sprintf("blocks of %q cover %d of %d postings", term, end, nPost), nil)
		}
		payload, err := fr.Bytes(off)
		if err != nil {
			return err
		}
		bl, err := postings.NewBlockList(int(nPost), skips, payload)
		if err != nil {
			return fr.Corrupt(fmt.Sprintf("postings for %q", term), err)
		}
		lists[term] = bl
	}
	d.adoptIndex(index.RestoreBlocks(d.store, d.tok, lists))
	return nil
}
