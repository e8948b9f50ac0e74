package storage

import "repro/internal/xmltree"

// Accessor is the accounting access path to a Store. All physical operators
// in internal/exec read node records through an Accessor so experiments can
// report how many store touches each access method performed. An Accessor is
// cheap; create one per operator or per query.
//
// Page accounting charges a page read whenever an access lands on a
// different simulated page (PageSize records) than the previous access
// through this Accessor — sequential scans are cheap, scattered navigation
// is not, mirroring the disk behaviour that shapes the paper's baseline
// costs.
type Accessor struct {
	store *Store
	docs  []*Document // capped view of the document table (see Store.viewLocked)
	Stats AccessStats
	// Budget, when non-nil, additionally meters every node-record fetch
	// into a query-wide shared counter (see AccessBudget); exec.Guard
	// enforces the MaxAccesses limit against it.
	Budget *AccessBudget

	faults *FaultInjector
}

// NewAccessor returns an accessor over s. It inherits the store's fault
// injector, if one is installed, and reads the documents loaded when it was
// created through a zero-copy view, so concurrent ingestion cannot move the
// table mid-query. Creating one costs a lock round trip, not a table copy:
// take the index snapshot first and the accessor second, and every document
// the snapshot can name is in the view.
func NewAccessor(s *Store) *Accessor {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return &Accessor{store: s, docs: s.viewLocked(), faults: s.faults}
}

// Store returns the underlying store.
func (a *Accessor) Store() *Store { return a.store }

func (a *Accessor) charge(doc DocID, ord int32) {
	a.Stats.NodeReads++
	page := int64(doc)<<32 | int64(ord/PageSize)
	if !a.Stats.lastPageOK || a.Stats.lastPage != page {
		a.Stats.PageReads++
		a.Stats.lastPage = page
		a.Stats.lastPageOK = true
	}
	if a.Budget != nil {
		a.Budget.add(1)
	}
	if a.faults != nil {
		a.faults.onAccess()
	}
}

// Node fetches the node record at (doc, ord), charging one node read.
func (a *Accessor) Node(doc DocID, ord int32) *NodeRec {
	a.charge(doc, ord)
	return &a.docs[doc].Nodes[ord]
}

// Parent returns the parent ordinal of (doc, ord), or NoNode.
func (a *Accessor) Parent(doc DocID, ord int32) int32 {
	return a.Node(doc, ord).Parent
}

// Ancestors returns the ancestor chain of (doc, ord) from the parent up to
// the root, charging one node read per step.
func (a *Accessor) Ancestors(doc DocID, ord int32) []int32 {
	var out []int32
	for p := a.Node(doc, ord).Parent; p != NoNode; {
		out = append(out, p)
		p = a.Node(doc, p).Parent
	}
	return out
}

// ChildCountNav returns the number of children of (doc, ord) by navigating
// the child/sibling chain — the data access the plain TermJoin performs for
// the complex scoring function. Enhanced TermJoin uses ChildCountIndexed
// instead.
func (a *Accessor) ChildCountNav(doc DocID, ord int32) int32 {
	n := int32(0)
	for c := a.Node(doc, ord).FirstChild; c != NoNode; {
		n++
		a.Stats.NavSteps++
		c = a.Node(doc, c).NextSibling
	}
	return n
}

// ChildCountIndexed returns the number of children of (doc, ord) from the
// child-count index in O(1) — the index structure Enhanced TermJoin relies
// on. Along with the count, the parent's ordinal is returned, matching the
// paper's description ("it uses an index structure to get a parent of a
// given node; along with the parent information, the number of children of
// this parent is returned").
func (a *Accessor) ChildCountIndexed(doc DocID, ord int32) (parent, count int32) {
	rec := a.Node(doc, ord)
	return rec.Parent, rec.ChildCount
}

// Text returns the text payload of a text node, charging a text read.
func (a *Accessor) Text(doc DocID, ord int32) string {
	a.Stats.TextReads++
	return a.Node(doc, ord).Text
}

// SubtreeText concatenates the text of every text node in the subtree of
// (doc, ord) in document order, charging per record scanned.
func (a *Accessor) SubtreeText(doc DocID, ord int32) string {
	d := a.docs[doc]
	end := d.SubtreeEnd(ord)
	var out []byte
	for i := ord; i < end; i++ {
		rec := a.Node(doc, i)
		if rec.Kind == xmltree.Text {
			a.Stats.TextReads++
			if len(out) > 0 {
				out = append(out, ' ')
			}
			out = append(out, rec.Text...)
		}
	}
	return string(out)
}

// Materialize returns the xmltree subtree rooted at (doc, ord), for handing
// results back to the user. It charges one node read per subtree node.
func (a *Accessor) Materialize(doc DocID, ord int32) *xmltree.Node {
	d := a.docs[doc]
	end := d.SubtreeEnd(ord)
	for i := ord; i < end; i++ {
		a.charge(doc, i)
	}
	return d.TreeNode(ord)
}
