package exec

import (
	"fmt"
	"sort"

	"repro/internal/index"
	"repro/internal/storage"
)

// PhraseMatch is one phrase occurrence: the text node containing it and the
// absolute word position of its first term. A phrase match list is
// interchangeable with a term posting list, so phrase scores can feed the
// same downstream operators (e.g. TermJoin over phrases).
type PhraseMatch struct {
	Doc storage.DocID
	// Node is the text node containing the whole phrase.
	Node int32
	// Pos is the absolute position of the phrase's first word.
	Pos uint32
}

// PhraseFinder is the access method of Sec. 5.1.2: it intersects the
// posting lists of the phrase's terms and uses the word-offset information
// kept in the index to verify phrase adjacency during the intersection
// itself — no post-hoc re-fetch of document text is needed.
//
// The intersection gallops (DESIGN.md §15): the rarest term drives the
// scan, and for each of its occurrences the other terms are verified in
// ascending-frequency order with SeekPos — each verifier's skip-table
// seek jumps over the postings a stepwise merge would have decoded. A phrase containing one rare word therefore costs O(rare)
// seeks regardless of how common its other words are.
type PhraseFinder struct {
	Index *index.Index
	// Phrase is the term sequence, e.g. ["information", "retrieval"].
	Phrase []string
	// Lists, when non-nil, are the phrase terms' posting lists in Phrase
	// order, read in place of the index's: a caller scopes the search by
	// Range-scoping them, as TermQuery.Lists does for TermJoin.
	Lists []index.List
	// Guard, when non-nil, is the cooperative cancellation and resource
	// budget, checked once per first-term occurrence and per match.
	Guard *Guard
}

// Run emits every occurrence of the phrase in position order.
func (p *PhraseFinder) Run(emit func(PhraseMatch)) error {
	if len(p.Phrase) == 0 {
		return fmt.Errorf("exec: PhraseFinder requires a non-empty phrase")
	}
	if p.Lists != nil && len(p.Lists) != len(p.Phrase) {
		return fmt.Errorf("exec: PhraseFinder has %d lists for %d phrase terms", len(p.Lists), len(p.Phrase))
	}
	if err := p.Guard.Check(); err != nil {
		return err
	}
	lists := p.Lists
	if lists == nil {
		lists = make([]index.List, len(p.Phrase))
		for i, t := range normalizeTerms(p.Index, p.Phrase) {
			lists[i] = p.Index.List(t)
		}
	}
	if len(lists) == 1 {
		for cur := lists[0].Cursor(); cur.Valid(); cur.Advance() {
			occ := cur.Cur()
			if err := p.Guard.NoteEmit(); err != nil {
				return err
			}
			emit(PhraseMatch{Doc: occ.Doc, Node: occ.Node, Pos: occ.Pos})
		}
		return nil
	}
	// Drive from the rarest term; verify the others rarest-first so a
	// non-match is rejected after the fewest (and cheapest) seeks.
	di := 0
	for i, l := range lists {
		if l.Len() < lists[di].Len() {
			di = i
		}
	}
	order := make([]int, 0, len(lists)-1)
	for i := range lists {
		if i != di {
			order = append(order, i)
		}
	}
	sort.Slice(order, func(a, b int) bool {
		la, lb := lists[order[a]].Len(), lists[order[b]].Len()
		if la != lb {
			return la < lb
		}
		return order[a] < order[b]
	})
	cursors := make([]*index.Cursor, len(order))
	for i, s := range order {
		if err := p.Guard.Tick(); err != nil {
			return err
		}
		cursors[i] = lists[s].Cursor()
	}
	// For each occurrence of the driver (phrase slot di) at position q, the
	// phrase matches iff slot s occurs at q+(s-di) for every other slot —
	// same document, and the same text node (adjacency in the shared
	// word-position space alone could cross a node boundary). Each verifier
	// cursor only ever moves forward: driver occurrences ascend, so its
	// target positions ascend too, which is what lets SeekPos gallop.
	for fc := lists[di].Cursor(); fc.Valid(); fc.Advance() {
		occ := fc.Cur()
		if err := p.Guard.Tick(); err != nil {
			return err
		}
		if occ.Pos < uint32(di) {
			continue // phrase would start before position 0
		}
		ok := true
		for i, c := range cursors {
			s := order[i]
			want := occ.Pos + uint32(s) - uint32(di)
			c.SeekPos(occ.Doc, want)
			if !c.Valid() {
				// An exhausted verifier stays exhausted — cursors never
				// move backward and later driver occurrences only produce
				// larger (doc, pos) targets — so no further match exists.
				return nil
			}
			cur := c.Cur()
			if cur.Doc != occ.Doc || cur.Pos != want || cur.Node != occ.Node {
				ok = false
				break
			}
		}
		if ok {
			if err := p.Guard.NoteEmit(); err != nil {
				return err
			}
			emit(PhraseMatch{Doc: occ.Doc, Node: occ.Node, Pos: occ.Pos - uint32(di)})
		}
	}
	return nil
}

// CollectPhrase runs a phrase search and returns the matches.
func CollectPhrase(f func(func(PhraseMatch)) error) ([]PhraseMatch, error) {
	var out []PhraseMatch
	err := f(func(m PhraseMatch) { out = append(out, m) })
	return out, err
}

// Comp3 is the composite baseline PhraseFinder is compared against in
// Sec. 6.2: an index access per term, an intersection of the returned
// element (text node) identifiers, and then a filter pass that re-fetches
// each candidate node's text from the store and verifies that the phrase
// terms appear exactly one offset apart, in order. The extra work at the
// filter level — re-tokenizing candidate text, which grows with the
// intersection size — is what PhraseFinder avoids.
type Comp3 struct {
	Index  *index.Index
	Acc    *storage.Accessor
	Phrase []string
	// Guard, when non-nil, is the cooperative cancellation and resource
	// budget, checked per posting in the intersection and per candidate
	// in the filter pass.
	Guard *Guard
}

// Run emits every occurrence of the phrase, in position order.
func (c *Comp3) Run(emit func(PhraseMatch)) error {
	if len(c.Phrase) == 0 {
		return fmt.Errorf("exec: Comp3 requires a non-empty phrase")
	}
	c.Guard.Attach(c.Acc)
	if err := c.Guard.Check(); err != nil {
		return err
	}
	terms := normalizeTerms(c.Index, c.Phrase)

	type nodeKey struct {
		doc  storage.DocID
		node int32
	}
	// Index access per term: materialize the set of text nodes containing
	// the term, then intersect.
	var candidates map[nodeKey]bool
	for _, term := range terms {
		now := map[nodeKey]bool{}
		for cur := c.Index.List(term).Cursor(); cur.Valid(); cur.Advance() {
			if err := c.Guard.Tick(); err != nil {
				return err
			}
			p := cur.Cur()
			now[nodeKey{p.Doc, p.Node}] = true
		}
		if candidates == nil {
			candidates = now
			continue
		}
		for k := range candidates {
			if !now[k] {
				delete(candidates, k)
			}
		}
	}
	keys := make([]nodeKey, 0, len(candidates))
	for k := range candidates {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].doc != keys[j].doc {
			return keys[i].doc < keys[j].doc
		}
		return keys[i].node < keys[j].node
	})

	// Filter: fetch each candidate's text and verify offsets.
	tok := c.Index.Tokenizer()
	for _, k := range keys {
		if err := c.Guard.Tick(); err != nil {
			return err
		}
		text := c.Acc.Text(k.doc, k.node)
		toks := tok.Tokenize(text)
		start := c.Acc.Node(k.doc, k.node).Start
		for i := 0; i+len(terms) <= len(toks); i++ {
			match := true
			for j, t := range terms {
				if toks[i+j].Term != t || toks[i+j].Offset != toks[i].Offset+uint32(j) {
					match = false
					break
				}
			}
			if match {
				if err := c.Guard.NoteEmit(); err != nil {
					return err
				}
				emit(PhraseMatch{Doc: k.doc, Node: k.node, Pos: start + toks[i].Offset})
			}
		}
	}
	return nil
}
