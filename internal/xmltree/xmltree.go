// Package xmltree implements the ordered labeled tree data model that
// underlies the TIX algebra (Al-Khalifa, Yu, Jagadish: "Querying Structured
// Text in an XML Database", SIGMOD 2003).
//
// XML data is modeled as a rooted, ordered tree. Each node carries a tag (or
// text payload for text nodes) and a set of attribute-value pairs. Every
// node additionally carries a region encoding — (Start, End, Level) — in the
// style of the structural-join literature: Start and End are word-granular
// positions in the document, so that
//
//	a is an ancestor of d  ⇔  a.Start < d.Start && d.End <= a.End
//
// and word offsets of individual term occurrences fall inside the region of
// every enclosing element. The region encoding is assigned by Number (or by
// Parse, which numbers automatically) and is the basis for the stack-based
// access methods in internal/exec.
package xmltree

import (
	"fmt"
	"sort"
	"strings"
)

// Kind distinguishes element nodes from text nodes.
type Kind uint8

const (
	// Element is an interior (tagged) node.
	Element Kind = iota
	// Text is a leaf node holding character data.
	Text
)

// String returns "element" or "text".
func (k Kind) String() string {
	switch k {
	case Element:
		return "element"
	case Text:
		return "text"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Attr is a single attribute-value pair on an element node.
type Attr struct {
	Name  string
	Value string
}

// Node is a node of an ordered labeled XML tree.
//
// For Element nodes, Tag is the element name and Children holds the ordered
// child list. For Text nodes, Text holds the character data and Children is
// empty. Start, End and Level are filled in by Number.
type Node struct {
	Kind     Kind
	Tag      string // element name; empty for text nodes
	Text     string // character data; empty for element nodes
	Attrs    []Attr
	Parent   *Node
	Children []*Node

	// Region encoding (word-granular). Valid after Number.
	Start uint32
	End   uint32
	Level uint16

	// Ord is the preorder ordinal of the node within its document,
	// starting at 0 for the root. Valid after Number. It doubles as a
	// stable node identifier for storage layers.
	Ord int32

	// Src is the provenance pointer of a derived node: operators that
	// clone nodes into witness or projection trees (internal/algebra) set
	// it to the original document node, surviving renumbering of the
	// derived tree. Nil on nodes that are not derived.
	Src *Node
}

// Origin returns the original document node this node derives from,
// following the provenance chain; a non-derived node returns itself.
func (n *Node) Origin() *Node {
	o := n
	for o.Src != nil {
		o = o.Src
	}
	return o
}

// NewElement returns a new element node with the given tag.
func NewElement(tag string) *Node {
	return &Node{Kind: Element, Tag: tag}
}

// NewText returns a new text node with the given character data.
func NewText(text string) *Node {
	return &Node{Kind: Text, Text: text}
}

// AppendChild appends c as the last child of n and sets c.Parent.
func (n *Node) AppendChild(c *Node) *Node {
	c.Parent = n
	n.Children = append(n.Children, c)
	return n
}

// Attr returns the value of the named attribute and whether it is present.
func (n *Node) Attr(name string) (string, bool) {
	for _, a := range n.Attrs {
		if a.Name == name {
			return a.Value, true
		}
	}
	return "", false
}

// SetAttr sets (or replaces) the named attribute.
func (n *Node) SetAttr(name, value string) {
	for i := range n.Attrs {
		if n.Attrs[i].Name == name {
			n.Attrs[i].Value = value
			return
		}
	}
	n.Attrs = append(n.Attrs, Attr{Name: name, Value: value})
}

// IsAncestorOf reports whether n is a proper ancestor of d, judged by the
// region encoding. Both nodes must belong to the same numbered document.
func (n *Node) IsAncestorOf(d *Node) bool {
	return n.Start < d.Start && d.End <= n.End
}

// Contains reports whether n is d itself or an ancestor of d (the ad*
// relationship of the TIX pattern trees).
func (n *Node) Contains(d *Node) bool {
	return n == d || n.IsAncestorOf(d)
}

// Ancestors returns the chain of proper ancestors of n, from parent up to
// the root.
func (n *Node) Ancestors() []*Node {
	var out []*Node
	for p := n.Parent; p != nil; p = p.Parent {
		out = append(out, p)
	}
	return out
}

// Root returns the root of the tree containing n.
func (n *Node) Root() *Node {
	r := n
	for r.Parent != nil {
		r = r.Parent
	}
	return r
}

// Walk visits n and every descendant in document (preorder) order. If f
// returns false the walk below that node is pruned.
func (n *Node) Walk(f func(*Node) bool) {
	if !f(n) {
		return
	}
	for _, c := range n.Children {
		c.Walk(f)
	}
}

// FindAll returns all nodes in the subtree rooted at n (including n itself)
// for which pred returns true, in document order.
func (n *Node) FindAll(pred func(*Node) bool) []*Node {
	var out []*Node
	n.Walk(func(m *Node) bool {
		if pred(m) {
			out = append(out, m)
		}
		return true
	})
	return out
}

// FindTag returns all element nodes with the given tag in the subtree rooted
// at n, in document order.
func (n *Node) FindTag(tag string) []*Node {
	return n.FindAll(func(m *Node) bool { return m.Kind == Element && m.Tag == tag })
}

// FirstTag returns the first element with the given tag in document order,
// or nil.
func (n *Node) FirstTag(tag string) *Node {
	var found *Node
	n.Walk(func(m *Node) bool {
		if found != nil {
			return false
		}
		if m.Kind == Element && m.Tag == tag {
			found = m
			return false
		}
		return true
	})
	return found
}

// AllText concatenates the character data of every text node in the subtree
// rooted at n, in document order, separated by single spaces. This realizes
// the alltext() function used by the paper's scoring functions (Fig. 9).
func (n *Node) AllText() string {
	var sb strings.Builder
	first := true
	n.Walk(func(m *Node) bool {
		if m.Kind == Text && m.Text != "" {
			if !first {
				sb.WriteByte(' ')
			}
			sb.WriteString(m.Text)
			first = false
		}
		return true
	})
	return sb.String()
}

// Size returns the number of nodes (elements and text nodes) in the subtree
// rooted at n, including n itself.
func (n *Node) Size() int {
	c := 0
	n.Walk(func(*Node) bool { c++; return true })
	return c
}

// Clone deep-copies the subtree rooted at n. The clone's Parent is nil; all
// numbering fields are copied verbatim.
func (n *Node) Clone() *Node {
	cp := &Node{
		Kind:  n.Kind,
		Tag:   n.Tag,
		Text:  n.Text,
		Start: n.Start,
		End:   n.End,
		Level: n.Level,
		Ord:   n.Ord,
	}
	if len(n.Attrs) > 0 {
		cp.Attrs = append([]Attr(nil), n.Attrs...)
	}
	for _, c := range n.Children {
		cc := c.Clone()
		cc.Parent = cp
		cp.Children = append(cp.Children, cc)
	}
	return cp
}

// String renders a short human-readable description of the node.
func (n *Node) String() string {
	switch n.Kind {
	case Text:
		t := n.Text
		if len(t) > 32 {
			t = t[:29] + "..."
		}
		return fmt.Sprintf("text(%q)[%d:%d]", t, n.Start, n.End)
	default:
		return fmt.Sprintf("<%s>[%d:%d @%d]", n.Tag, n.Start, n.End, n.Level)
	}
}

// wordCount counts whitespace-separated words; the region encoding advances
// by one position per word so that term offsets nest inside element regions.
func wordCount(s string) uint32 {
	n := uint32(0)
	inWord := false
	for i := 0; i < len(s); i++ {
		c := s[i]
		isSpace := c == ' ' || c == '\t' || c == '\n' || c == '\r'
		if !isSpace && !inWord {
			n++
			inWord = true
		} else if isSpace {
			inWord = false
		}
	}
	return n
}

// Number assigns the region encoding (Start, End, Level) and preorder
// ordinals (Ord) to every node of the tree rooted at root. Positions are
// word-granular: the counter advances by one for every element open tag, by
// one for every word of character data, and by one for every close tag, so
// that for a text node the k-th word (0-based) occupies position
// Start+k. Number returns the total number of nodes.
func Number(root *Node) int {
	pos := uint32(0)
	ord := int32(0)
	var rec func(n *Node, level uint16)
	rec = func(n *Node, level uint16) {
		n.Level = level
		n.Ord = ord
		ord++
		n.Start = pos
		pos++ // open tag / start of text
		if n.Kind == Text {
			w := wordCount(n.Text)
			if w > 0 {
				pos += w - 1 // first word sits at Start
			}
		}
		for _, c := range n.Children {
			rec(c, level+1)
		}
		n.End = pos
		pos++ // close tag
	}
	rec(root, 0)
	return int(ord)
}

// Nodes returns every node of the numbered tree in document order.
func Nodes(root *Node) []*Node {
	out := make([]*Node, 0, 64)
	root.Walk(func(n *Node) bool {
		out = append(out, n)
		return true
	})
	return out
}

// ByStart sorts a node slice by Start key (document order).
func ByStart(nodes []*Node) {
	sort.Slice(nodes, func(i, j int) bool { return nodes[i].Start < nodes[j].Start })
}

// Validate checks the structural invariants of a numbered tree: parent
// regions strictly contain child regions, siblings are disjoint and ordered,
// levels increase by one on each edge, and ordinals are a preorder sequence.
// It returns the first violation found, or nil.
func Validate(root *Node) error {
	if root.Parent != nil {
		return fmt.Errorf("root has non-nil parent")
	}
	prevOrd := int32(-1)
	var rec func(n *Node) error
	rec = func(n *Node) error {
		if n.Ord != prevOrd+1 {
			return fmt.Errorf("node %v: ord %d, want %d", n, n.Ord, prevOrd+1)
		}
		prevOrd = n.Ord
		if n.Start > n.End {
			return fmt.Errorf("node %v: start > end", n)
		}
		var prev *Node
		for _, c := range n.Children {
			if c.Parent != n {
				return fmt.Errorf("child %v of %v: bad parent pointer", c, n)
			}
			if c.Level != n.Level+1 {
				return fmt.Errorf("child %v of %v: level %d, want %d", c, n, c.Level, n.Level+1)
			}
			if !(n.Start < c.Start && c.End < n.End) {
				return fmt.Errorf("child %v not strictly inside parent %v", c, n)
			}
			if prev != nil && !(prev.End < c.Start) {
				return fmt.Errorf("siblings %v and %v overlap", prev, c)
			}
			prev = c
			if err := rec(c); err != nil {
				return err
			}
		}
		return nil
	}
	return rec(root)
}
