package db

import (
	"bytes"
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
// payloads. Loading adopts copies of the payload bytes without
// re-encoding, and postings.NewBlockList validates every block, so a
// section that passes the checksum but holds malformed blocks is still
// rejected.

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

// IndexSection is an index section decoded by DecodeIndex: per term, the
// skip table rebuilt from its uvarints and the block payloads, not yet
// validated. Validate checks one list and InstallIndex adopts them all.
type IndexSection struct {
	fr     *FrameReader
	lists  []sectionList
	byTerm map[string]*postings.BlockList // nil without an index
}

// sectionList is one term's posting list in an IndexSection.
type sectionList struct {
	term    string
	n       int
	skips   []postings.Skip
	payload []byte // a slice of the frame's input until Validate copies it
	bl      *postings.BlockList
	err     error
}

// DecodeIndex reads an index section written by WriteIndex for a segment
// of numDocs documents, as far as fr lets it. It checks the counts and
// skip entries as it reads them and fails fr on the first that does not
// hold; the blocks themselves are left to Validate.
func DecodeIndex(fr *FrameReader, numDocs int) *IndexSection {
	sec := &IndexSection{fr: fr}
	if has := fr.Byte(); has != 1 {
		if has > 1 {
			fr.Fail(fmt.Sprintf("index presence byte %d", has), nil)
		}
		return sec
	}
	nDocs, nTerms := uint64(numDocs), fr.Uvarint()
	sec.byTerm = make(map[string]*postings.BlockList, min(nTerms, 1<<16))
	for i := uint64(0); i < nTerms && fr.Err() == nil; i++ {
		term := fr.Text()
		_, dup := sec.byTerm[term]
		nPost, nBlocks := fr.Uvarint(), fr.Uvarint()
		switch {
		case dup:
			fr.Fail(fmt.Sprintf("term %q listed twice", term), nil)
		case nPost > math.MaxInt32 || nBlocks > nPost:
			fr.Fail(fmt.Sprintf("%d blocks for %d postings of %q", nBlocks, nPost, term), nil)
		}
		sec.byTerm[term] = nil
		skips := make([]postings.Skip, 0, min(nBlocks, 1<<16))
		var off, end uint64
		for b := uint64(0); b < nBlocks && fr.Err() == nil; b++ {
			var v [6]uint64
			for k := range v {
				v[k] = fr.Uvarint()
			}
			cnt, byteLen, firstDoc, docSpan, lastPos, maxFreq := v[0], v[1], v[2], v[3], v[4], v[5]
			end += cnt
			switch {
			case cnt < 1 || cnt > postings.BlockSize || end > nPost:
				fr.Fail(fmt.Sprintf("block %d of %q holds %d postings", b, term, cnt), nil)
			case byteLen == 0 || off+byteLen > math.MaxUint32:
				fr.Fail(fmt.Sprintf("block %d of %q is %d bytes", b, term, byteLen), nil)
			case docSpan >= nDocs || firstDoc >= nDocs-docSpan:
				fr.Fail(fmt.Sprintf("block %d of %q names documents past %d", b, term, nDocs), nil)
			case lastPos > math.MaxUint32 || maxFreq > cnt:
				fr.Fail(fmt.Sprintf("implausible skip entry %d of %q", b, term), nil)
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
			fr.Fail(fmt.Sprintf("blocks of %q cover %d of %d postings", term, end, nPost), nil)
		}
		if payload := fr.Bytes(off); fr.Err() == nil {
			sec.lists = append(sec.lists, sectionList{term: term, n: int(nPost), skips: skips, payload: payload})
		}
	}
	return sec
}

// Lists returns the number of posting lists the section decoded.
func (sec *IndexSection) Lists() int { return len(sec.lists) }

// Validate builds list i from a copy of its payload, so the frame's input
// is not kept alive by the index; postings.NewBlockList validates every
// block. Distinct lists may be validated concurrently.
func (sec *IndexSection) Validate(i int) {
	l := &sec.lists[i]
	bl, err := postings.NewBlockList(l.n, l.skips, bytes.Clone(l.payload))
	if err != nil {
		l.err = sec.fr.Corrupt(fmt.Sprintf("postings for %q", l.term), err)
	}
	l.bl, l.payload = bl, nil
}

// InstallIndex installs a section whose lists have all been validated as
// the segment's index. The segment must already hold the documents the
// section was written over, in their saved order. It returns the error of
// the first list, in file order, that failed validation. It installs
// nothing once the frame has failed, or for a section written without an
// index: the segment then builds its index lazily.
func (d *DB) InstallIndex(sec *IndexSection) error {
	for _, l := range sec.lists {
		if l.err != nil {
			return l.err
		}
		sec.byTerm[l.term] = l.bl
	}
	if sec.byTerm != nil && sec.fr.Err() == nil {
		d.adoptIndex(index.RestoreBlocks(d.store, d.tok, sec.byTerm))
	}
	return nil
}
