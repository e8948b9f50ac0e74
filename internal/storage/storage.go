// Package storage implements the node store that plays the role of the
// Timber back-end in the paper's experiments: a column-oriented, document-
// order array of node records per document, with the auxiliary indexes the
// access methods in internal/exec need — parent pointers, a child-count
// index (for Enhanced TermJoin), per-tag element extents (for structural
// joins and the Comp2 baseline), and subtree/text retrieval.
//
// The store is in-memory, but every retrieval goes through an access-
// accounting layer that counts node and page touches. The proposed access
// methods (TermJoin, PhraseFinder, Pick) touch the store rarely; the
// composite baselines touch it per intermediate result, which is what
// produces the cost separation the paper reports.
//
// The store is append-only and internally synchronized: documents may be
// added (and names released for re-add) concurrently with readers, which
// is what live ingestion requires. Individual Document records are
// immutable once loaded, so holding a *Document across mutations is safe,
// and so is holding a prefix of the document table: an Accessor reads
// through such a prefix instead of copying the table.
// Deleted documents keep their slots — the index layer hides them behind
// tombstones — and are only reclaimed by a full rebuild.
package storage

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/xmltree"
)

// DocID identifies a loaded document within a Store.
type DocID int32

// TagID is an interned element tag.
type TagID int32

// NoNode marks an absent node reference (e.g. the root's parent).
const NoNode int32 = -1

// NodeRec is the flat record stored for every node of a document. Records
// are stored in document (preorder) order, so a node's ordinal is also its
// index and Start keys are strictly increasing with the ordinal.
type NodeRec struct {
	Start uint32
	End   uint32
	Level uint16
	Kind  xmltree.Kind
	Tag   TagID  // valid for element nodes
	Text  string // valid for text nodes

	Parent      int32 // ordinal of the parent, NoNode for the root
	FirstChild  int32 // ordinal of the first child, NoNode if leaf
	NextSibling int32 // ordinal of the next sibling, NoNode if last
	ChildCount  int32 // number of children (elements and text nodes)
}

// Document is one loaded XML document.
type Document struct {
	ID    DocID
	Name  string
	Root  *xmltree.Node // retained for result materialization
	Nodes []NodeRec     // document order; index == ordinal

	tagExtent map[TagID][]int32 // element ordinals per tag, document order
	elements  []int32           // all element ordinals, document order
	ordOnce   sync.Once         // builds ordToNode exactly once
	ordToNode []*xmltree.Node   // lazy ordinal → tree node map
}

// TagDict interns element tag names store-wide. It is safe for concurrent
// use; assigned ids are stable for the dictionary's lifetime.
type TagDict struct {
	mu     sync.RWMutex
	byName map[string]TagID
	names  []string
}

// NewTagDict returns an empty dictionary.
func NewTagDict() *TagDict {
	return &TagDict{byName: make(map[string]TagID)}
}

// Intern returns the TagID for name, assigning a fresh one if needed.
func (d *TagDict) Intern(name string) TagID {
	d.mu.RLock()
	id, ok := d.byName[name]
	d.mu.RUnlock()
	if ok {
		return id
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if id, ok := d.byName[name]; ok {
		return id
	}
	id = TagID(len(d.names))
	d.byName[name] = id
	d.names = append(d.names, name)
	return id
}

// Lookup returns the TagID for name and whether it is known.
func (d *TagDict) Lookup(name string) (TagID, bool) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	id, ok := d.byName[name]
	return id, ok
}

// Name returns the tag name for id.
func (d *TagDict) Name(id TagID) string {
	d.mu.RLock()
	defer d.mu.RUnlock()
	if int(id) < 0 || int(id) >= len(d.names) {
		return fmt.Sprintf("tag#%d", id)
	}
	return d.names[id]
}

// Len returns the number of interned tags.
func (d *TagDict) Len() int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return len(d.names)
}

// AccessStats counts store touches. The baselines in internal/exec report
// these so experiments can show *why* they are slow, not only that they are.
type AccessStats struct {
	NodeReads  int64 // individual node record fetches
	PageReads  int64 // distinct-page transitions (sequential locality is cheap)
	TextReads  int64 // text payload fetches
	NavSteps   int64 // child/sibling navigation steps
	lastPage   int64
	lastPageOK bool
}

// Reset zeroes the counters.
func (s *AccessStats) Reset() { *s = AccessStats{} }

// Add accumulates o into s.
func (s *AccessStats) Add(o AccessStats) {
	s.NodeReads += o.NodeReads
	s.PageReads += o.PageReads
	s.TextReads += o.TextReads
	s.NavSteps += o.NavSteps
}

// String formats the counters compactly.
func (s *AccessStats) String() string {
	return fmt.Sprintf("nodes=%d pages=%d texts=%d nav=%d", s.NodeReads, s.PageReads, s.TextReads, s.NavSteps)
}

// PageSize is the number of node records per simulated page for page-touch
// accounting.
const PageSize = 128

// Store holds a set of loaded documents and the shared tag dictionary.
type Store struct {
	Tags *TagDict

	mu     sync.RWMutex
	docs   []*Document
	byName map[string]DocID
	faults *FaultInjector
}

// SetFaults installs a fault injector consulted by every Accessor created
// afterwards (nil uninstalls). Install before serving; existing accessors
// keep the injector they were created with.
func (s *Store) SetFaults(f *FaultInjector) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.faults = f
}

// Faults returns the installed fault injector, or nil.
func (s *Store) Faults() *FaultInjector {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.faults
}

// NewStore returns an empty store.
func NewStore() *Store {
	return &Store{Tags: NewTagDict(), byName: make(map[string]DocID)}
}

// AddTree loads a numbered xmltree into the store under the given document
// name and returns its DocID. The tree must already be numbered (Parse does
// this); AddTree renumbers defensively if the root looks unnumbered.
//
// Document ids are allocated monotonically in load order and never reused:
// a released name re-adds under a fresh id, which is what keeps live-index
// segments document-disjoint. The flattening work runs outside the store
// lock; only the final publication is serialized.
func (s *Store) AddTree(name string, root *xmltree.Node) (DocID, error) {
	s.mu.RLock()
	_, dup := s.byName[name]
	s.mu.RUnlock()
	if dup {
		return 0, fmt.Errorf("storage: document %q already loaded", name)
	}
	if root.End == 0 && len(root.Children) > 0 {
		xmltree.Number(root)
	}
	doc := &Document{
		Name:      name,
		Root:      root,
		tagExtent: make(map[TagID][]int32),
	}
	nodes := xmltree.Nodes(root)
	doc.Nodes = make([]NodeRec, len(nodes))
	ordOf := make(map[*xmltree.Node]int32, len(nodes))
	for i, n := range nodes {
		if n.Ord != int32(i) {
			return 0, fmt.Errorf("storage: node ordinals not preorder-contiguous (got %d at %d); tree not numbered?", n.Ord, i)
		}
		ordOf[n] = int32(i)
	}
	for i, n := range nodes {
		rec := NodeRec{
			Start:       n.Start,
			End:         n.End,
			Level:       n.Level,
			Kind:        n.Kind,
			Parent:      NoNode,
			FirstChild:  NoNode,
			NextSibling: NoNode,
			ChildCount:  int32(len(n.Children)),
		}
		if n.Parent != nil {
			rec.Parent = ordOf[n.Parent]
		}
		if len(n.Children) > 0 {
			rec.FirstChild = ordOf[n.Children[0]]
		}
		if n.Kind == xmltree.Element {
			rec.Tag = s.Tags.Intern(n.Tag)
		} else {
			rec.Text = n.Text
		}
		doc.Nodes[i] = rec
	}
	// Next-sibling links.
	for _, n := range nodes {
		for ci := 0; ci+1 < len(n.Children); ci++ {
			doc.Nodes[ordOf[n.Children[ci]]].NextSibling = ordOf[n.Children[ci+1]]
		}
	}
	// Tag extents.
	for i := range doc.Nodes {
		if doc.Nodes[i].Kind == xmltree.Element {
			tid := doc.Nodes[i].Tag
			doc.tagExtent[tid] = append(doc.tagExtent[tid], int32(i))
			doc.elements = append(doc.elements, int32(i))
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.byName[name]; dup {
		return 0, fmt.Errorf("storage: document %q already loaded", name)
	}
	id := DocID(len(s.docs))
	doc.ID = id
	s.docs = append(s.docs, doc)
	s.byName[name] = id
	return id, nil
}

// ReleaseName forgets the name→id binding of a deleted document so the
// name can be loaded again (under a fresh id). The document record itself
// stays in place; the index layer is responsible for hiding it.
func (s *Store) ReleaseName(name string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.byName, name)
}

// Doc returns the document with the given id, or nil.
func (s *Store) Doc(id DocID) *Document {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if int(id) < 0 || int(id) >= len(s.docs) {
		return nil
	}
	return s.docs[id]
}

// DocByName returns the document loaded under name, or nil.
func (s *Store) DocByName(name string) *Document {
	s.mu.RLock()
	defer s.mu.RUnlock()
	id, ok := s.byName[name]
	if !ok {
		return nil
	}
	return s.docs[id]
}

// viewLocked returns the document table as loaded so far, without copying:
// a header over the store's backing array, capped at its current length.
// The table is append-only — AddTree is its only writer and never rewrites
// an element below len — so the view's elements are immutable, and the cap
// makes any append the caller might do reallocate instead of writing into
// the store's spare capacity. Caller holds s.mu (either mode).
func (s *Store) viewLocked() []*Document {
	n := len(s.docs)
	return s.docs[:n:n]
}

// Docs returns a copy of the document table in load order. The *Document
// records are shared (they are immutable once loaded) but the slice is the
// caller's: reordering or truncating it cannot corrupt the store's table,
// and it stays stable while concurrent loads append. The copy is the
// exported contract (index.Docs filters its result in place, and the
// aliasret analyzer rejects an exported accessor that aliases the table);
// per-query readers go through an Accessor, which holds the zero-copy view.
func (s *Store) Docs() []*Document {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]*Document, len(s.docs))
	copy(out, s.docs)
	return out
}

// DocsPrefix returns a copy of the first n documents in load order (all of
// them when n exceeds the table) — the stable view a snapshot taken at
// document-count n reads through.
func (s *Store) DocsPrefix(n int) []*Document {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if n > len(s.docs) {
		n = len(s.docs)
	}
	if n < 0 {
		n = 0
	}
	out := make([]*Document, n)
	copy(out, s.docs[:n])
	return out
}

// NumDocs returns the number of loaded documents (including any hidden
// behind index-layer tombstones).
func (s *Store) NumDocs() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.docs)
}

// NumNodes returns the total number of node records across all documents.
func (s *Store) NumNodes() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	n := 0
	for _, d := range s.docs {
		n += len(d.Nodes)
	}
	return n
}

// TagExtent returns the ordinals of all elements with the given tag in doc,
// in document order. The returned slice must not be modified.
//
//tixlint:ignore aliasret Document is immutable after construction and TagExtent sits on the per-query hot path; callers hold a read-only view by documented contract
func (d *Document) TagExtent(tag TagID) []int32 { return d.tagExtent[tag] }

// Elements returns the ordinals of all element nodes in document order. The
// returned slice must not be modified.
//
//tixlint:ignore aliasret Document is immutable after construction and Elements backs every structural join; copying per query would dominate operator cost
func (d *Document) Elements() []int32 { return d.elements }

// OrdByStart returns the ordinal of the node whose Start equals start, or
// NoNode. Because ordinals are preorder, Start keys are strictly increasing
// and a binary search suffices.
func (d *Document) OrdByStart(start uint32) int32 {
	i := sort.Search(len(d.Nodes), func(i int) bool { return d.Nodes[i].Start >= start })
	if i < len(d.Nodes) && d.Nodes[i].Start == start {
		return int32(i)
	}
	return NoNode
}

// SubtreeEnd returns the ordinal one past the last descendant of ord; the
// subtree of ord is the contiguous ordinal range [ord, SubtreeEnd).
func (d *Document) SubtreeEnd(ord int32) int32 {
	end := d.Nodes[ord].End
	i := sort.Search(len(d.Nodes), func(i int) bool { return d.Nodes[i].Start > end })
	return int32(i)
}

// TreeNode returns the xmltree node with the given ordinal (for result
// materialization). It costs a subtree walk on first use per document, after
// which lookups are O(1). Safe for concurrent use: the lazy map is built
// exactly once.
func (d *Document) TreeNode(ord int32) *xmltree.Node {
	d.ordOnce.Do(func() {
		d.ordToNode = make([]*xmltree.Node, len(d.Nodes))
		d.Root.Walk(func(n *xmltree.Node) bool {
			d.ordToNode[n.Ord] = n
			return true
		})
	})
	if int(ord) < 0 || int(ord) >= len(d.ordToNode) {
		return nil
	}
	return d.ordToNode[ord]
}
