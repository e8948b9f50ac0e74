package index

import (
	"sync/atomic"

	"repro/internal/postings"
	"repro/internal/storage"
	"repro/internal/tokenize"
	"repro/internal/xmltree"
)

// segment is one immutable encoded index segment: a term → block-list map
// over a contiguous, ascending document-id range. The base segment of a
// static index and the outputs of memtable seals and compaction folds all
// share this shape.
type segment struct {
	lists map[string]*postings.BlockList
	total int64
}

// memList is one term's in-memory append buffer. Appends arrive in
// (Doc, Pos) order because document ids are allocated monotonically and
// text nodes are tokenized in document order; addDoc verifies rather than
// trusts this, reusing the build-path invariant.
type memList struct {
	ps       []postings.Posting
	nodeFreq int
	lastDoc  storage.DocID
	lastNode int32
	gen      *atomic.Uint64 // the term's generation cell (Live.TermsGeneration)
}

// memtable is the mutable in-memory index layer documents are ingested
// into. It is single-writer (the Live mutation lock); readers never touch
// a memtable directly — they go through the immutable view a snapshot
// captures.
type memtable struct {
	lists map[string]*memList
	total int64
	docs  int
}

func newMemtable() *memtable {
	return &memtable{lists: make(map[string]*memList)}
}

// addDoc tokenizes every text node of doc into the append buffers,
// enforcing the same invariants as BuildChecked: int32-safe node ordinals
// and (Doc, Pos)-ordered posting streams. It appends the generation cell
// of each term the document adds a posting to, once, to touched and
// returns the slice; cell supplies a new term's cell. On error the
// memtable may hold a partial document; the caller is expected to
// tombstone it.
func (m *memtable) addDoc(doc *storage.Document, tok *tokenize.Tokenizer, cell func(term string) *atomic.Uint64, touched []*atomic.Uint64) ([]*atomic.Uint64, error) {
	if err := checkOrdinalCap(len(doc.Nodes), doc.Name); err != nil {
		return touched, err
	}
	for ord := range doc.Nodes {
		rec := &doc.Nodes[ord]
		if rec.Kind != xmltree.Text {
			continue
		}
		for _, t := range tok.Tokenize(rec.Text) {
			p := postings.Posting{
				Doc:    doc.ID,
				Node:   int32(ord),
				Pos:    rec.Start + t.Offset,
				Offset: t.Offset,
			}
			ml := m.lists[t.Term]
			if ml == nil {
				ml = &memList{gen: cell(t.Term)}
				m.lists[t.Term] = ml
			}
			if n := len(ml.ps); n > 0 && !ml.ps[n-1].Less(p) {
				return touched, &BuildError{Term: t.Term, Doc: doc.Name, Err: ErrPostingOrder}
			}
			if len(ml.ps) == 0 || ml.lastDoc != p.Doc {
				touched = append(touched, ml.gen)
			}
			if len(ml.ps) == 0 || ml.lastDoc != p.Doc || ml.lastNode != p.Node {
				ml.nodeFreq++
				ml.lastDoc, ml.lastNode = p.Doc, p.Node
			}
			ml.ps = append(ml.ps, p)
			m.total++
		}
	}
	m.docs++
	return touched, nil
}

// memRun is one term's postings as captured by a snapshot: a stable
// prefix of the append buffer plus its node frequency at capture time.
type memRun struct {
	ps       []postings.Posting
	nodeFreq int
}

// memView is an immutable snapshot of a memtable: per-term slice headers
// copied at their capture-time lengths. Later appends write beyond every
// captured length (possibly reallocating), so readers of a view never
// observe them.
type memView struct {
	lists map[string]memRun
	total int64
}

// view captures the memtable's current contents. Callers must hold the
// Live mutation lock so no append races the header copies.
func (m *memtable) view() *memView {
	v := &memView{lists: make(map[string]memRun, len(m.lists)), total: m.total}
	//tixlint:ignore mapiter per-key header copy writing only v.lists[term]; no cross-key state
	for term, ml := range m.lists {
		v.lists[term] = memRun{ps: ml.ps, nodeFreq: ml.nodeFreq}
	}
	return v
}

// encode seals the memtable's contents into an immutable segment,
// dropping postings of documents in tomb. Terms whose postings are all
// tombstoned disappear from the segment (the tombstone set still hides
// them everywhere else).
func (v *memView) encode(tomb *postings.Tombstones) *segment {
	seg := &segment{lists: make(map[string]*postings.BlockList, len(v.lists))}
	//tixlint:ignore mapiter per-key encode writing only seg.lists[term]; no cross-key state
	for term, run := range v.lists {
		ps := postings.Union(tomb, postings.NewRawList(run.ps)).Materialize()
		if len(ps) == 0 {
			continue
		}
		seg.lists[term] = postings.Encode(ps)
		seg.total += int64(len(ps))
	}
	return seg
}
