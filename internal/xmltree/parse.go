package xmltree

import (
	"encoding/xml"
	"errors"
	"fmt"
	"io"
	"slices"
	"strings"
	"unicode/utf8"
)

// MaxDepth is the deepest element nesting Parse accepts, counting the
// root as depth 1 and the synthetic wrapper root when it adds one. It
// bounds the recursion of every tree walk, keeps Level well inside its
// uint16 range, and is far above the nesting of real XML.
const MaxDepth = 4096

// ErrTooDeep marks a document nested deeper than MaxDepth.
var ErrTooDeep = errors.New("xmltree: document nested too deeply")

// ErrInvalidName marks an element or attribute name that the tree cannot
// keep: the tree stores only a name's local part, and a local part such as
// the "0" of "A:0" is not a name on its own, so the document's
// serialization would not parse back.
var ErrInvalidName = errors.New("xmltree: name does not survive serialization")

// ErrSplitText marks a text node that Parse never returns: one beside
// another text node, or with no character data or untrimmed whitespace.
// Its serialization parses back to a different tree.
var ErrSplitText = errors.New("xmltree: text node does not survive serialization")

// ErrStrayParent marks a child whose Parent is not the node that holds it.
var ErrStrayParent = errors.New("xmltree: child does not point back at its parent")

// Check reports why n, a node of a numbered tree, is not one Parse could
// return: an element nested deeper than MaxDepth (ErrTooDeep), a tag or
// attribute name that is not a name (ErrInvalidName), a text child
// beside another, empty or untrimmed (ErrSplitText), or a child whose
// Parent is another node (ErrStrayParent). Store.AddTree calls it
// on every node it loads, so a tree built in code saves to a snapshot that
// reopens to the same tree.
func (n *Node) Check() error {
	if n.Kind == Text {
		return nil
	}
	if n.Level >= MaxDepth {
		return fmt.Errorf("xmltree: <%s> nested more than %d elements deep: %w", n.Tag, MaxDepth, ErrTooDeep)
	}
	if !validName(n.Tag) {
		return fmt.Errorf("xmltree: tag %q: %w", n.Tag, ErrInvalidName)
	}
	for _, a := range n.Attrs {
		if !validName(a.Name) {
			return fmt.Errorf("xmltree: attribute %q of <%s>: %w", a.Name, n.Tag, ErrInvalidName)
		}
	}
	for i, c := range n.Children {
		if c.Parent != n {
			return fmt.Errorf("xmltree: child %d of <%s>: %w", i, n.Tag, ErrStrayParent)
		}
		if c.Kind == Text && (c.Text == "" || c.Text != strings.TrimSpace(c.Text) || i > 0 && n.Children[i-1].Kind == Text) {
			return fmt.Errorf("xmltree: text child %d of <%s>: %w", i, n.Tag, ErrSplitText)
		}
	}
	return nil
}

// Parse reads one XML document from r and returns its numbered tree. If the
// input contains multiple top-level elements (as reviews.xml in the paper's
// Fig. 1 does), they are wrapped under a synthetic root element named
// wrapper, mirroring what an XML database's document node would do.
//
// Character data is whitespace-trimmed; whitespace-only text nodes are
// dropped. Comments and processing instructions are ignored, and the
// character data on either side of one (or of a CDATA section) joins into
// one text node, so the serialization of every tree Parse returns parses
// back to the same tree. Names keep their local part; a document whose
// local parts are not names fails with ErrInvalidName, and one nested
// deeper than MaxDepth with ErrTooDeep.
func Parse(r io.Reader) (*Node, error) {
	dec := xml.NewDecoder(r)
	var roots []*Node
	var stack []*Node
	var text []byte // character data not yet attached to stack's top
	deepest := 0
	local := func(n xml.Name) (string, error) {
		// A name without a prefix is its own local part; only a split one
		// can lose what made it a name.
		if n.Space != "" && !isName(n.Local) {
			return "", fmt.Errorf("xmltree: parse: %q in %s:%s: %w", n.Local, n.Space, n.Local, ErrInvalidName)
		}
		return n.Local, nil
	}
	flush := func() {
		if t := strings.TrimSpace(string(text)); t != "" {
			stack[len(stack)-1].AppendChild(NewText(t))
		}
		text = text[:0]
	}
	for {
		tok, err := dec.Token()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("xmltree: parse: %w", err)
		}
		switch t := tok.(type) {
		case xml.StartElement:
			if len(stack) == MaxDepth {
				return nil, fmt.Errorf("xmltree: parse: more than %d nested elements: %w", MaxDepth, ErrTooDeep)
			}
			tag, err := local(t.Name)
			if err != nil {
				return nil, err
			}
			n := NewElement(tag)
			for _, a := range t.Attr {
				name, err := local(a.Name)
				if err != nil {
					return nil, err
				}
				n.Attrs = append(n.Attrs, Attr{Name: name, Value: a.Value})
			}
			if len(stack) > 0 {
				flush()
				stack[len(stack)-1].AppendChild(n)
			}
			stack = append(stack, n)
			deepest = max(deepest, len(stack))
		case xml.EndElement:
			if len(stack) == 0 {
				return nil, fmt.Errorf("xmltree: parse: unbalanced end element </%s>", t.Name.Local)
			}
			flush()
			top := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if len(stack) == 0 {
				roots = append(roots, top)
			}
		case xml.CharData:
			if len(stack) > 0 { // top-level character data is ignored
				text = append(text, t...)
			}
		}
	}
	if len(stack) != 0 {
		return nil, fmt.Errorf("xmltree: parse: unclosed element <%s>", stack[len(stack)-1].Tag)
	}
	var root *Node
	switch len(roots) {
	case 0:
		return nil, fmt.Errorf("xmltree: parse: empty document")
	case 1:
		root = roots[0]
	default:
		if deepest == MaxDepth {
			return nil, fmt.Errorf("xmltree: parse: %d nested elements under the wrapper root: %w", MaxDepth, ErrTooDeep)
		}
		root = NewElement("wrapper")
		for _, r := range roots {
			root.AppendChild(r)
		}
	}
	Number(root)
	return root, nil
}

// validName is isName with a fast path for the ASCII names nearly every
// document uses.
func validName(s string) bool {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if !('a' <= c && c <= 'z' || 'A' <= c && c <= 'Z' || c == '_' || i > 0 && ('0' <= c && c <= '9' || c == '-' || c == '.')) {
			return isName(s)
		}
	}
	return s != ""
}

// isName reports whether s, written as an element name, reads back as
// exactly s: the decoder that wrote the tree is the judge.
func isName(s string) bool {
	tok, err := xml.NewDecoder(strings.NewReader("<" + s + "/>")).RawToken()
	el, ok := tok.(xml.StartElement)
	return err == nil && ok && el.Name == xml.Name{Local: s}
}

// ParseString is Parse over an in-memory document.
//
// There is deliberately no panicking Must variant in this package: every
// production load path reports malformed XML as an error. Tests that parse
// literal documents keep small private helpers.
func ParseString(s string) (*Node, error) {
	return Parse(strings.NewReader(s))
}

// WriteXML serializes the subtree rooted at n as XML to w, in one Write:
// AppendXML's bytes.
func WriteXML(w io.Writer, n *Node, indent bool) error {
	_, err := w.Write(AppendXML(nil, n, indent))
	return err
}

// XMLString serializes the subtree rooted at n to an indented string:
// AppendXML's bytes with indent set.
func XMLString(n *Node) string {
	return string(AppendXML(nil, n, true))
}

// AppendXML appends the XML serialization of the subtree rooted at n to
// dst and returns the extended slice. When indent is true each node sits
// on a line of its own, padded two spaces per level up to maxIndentDepth
// levels and ended by a newline. It is the package's one XML writer:
// WriteXML and XMLString wrap it.
func AppendXML(dst []byte, n *Node, indent bool) []byte {
	return appendXML(dst, n, 0, indent)
}

// maxIndentDepth caps indentation: a node deeper than this is padded as a
// node at this depth, so indented output stays linear in the input however
// deep the tree nests.
const maxIndentDepth = 32

var indentPad = strings.Repeat("  ", maxIndentDepth)

func appendXML(b []byte, n *Node, depth int, indent bool) []byte {
	// Grow by doubling, as bytes.Buffer does: append alone grows a large
	// slice by about a quarter, which for a document of megabytes copies
	// and allocates about half again as much.
	if cap(b)-len(b) < 256 {
		b = slices.Grow(b, len(b)+256)
	}
	pad := ""
	if indent {
		pad = indentPad[:2*min(depth, maxIndentDepth)]
	}
	b = append(b, pad...)
	if n.Kind == Text {
		b = escapeText(b, n.Text)
	} else {
		b = append(b, '<')
		b = append(b, n.Tag...)
		for _, a := range n.Attrs {
			b = append(b, ' ')
			b = append(b, a.Name...)
			b = append(b, `="`...)
			b = escapeText(b, a.Value)
			b = append(b, '"')
		}
		if len(n.Children) == 0 {
			b = append(b, "/>"...)
		} else {
			b = append(b, '>')
			if indent {
				b = append(b, '\n')
			}
			for _, c := range n.Children {
				b = appendXML(b, c, depth+1, indent)
			}
			b = append(b, pad...)
			b = append(b, "</"...)
			b = append(b, n.Tag...)
			b = append(b, '>')
		}
	}
	if indent {
		b = append(b, '\n')
	}
	return b
}

// xmlPlain[c] reports whether escapeText copies byte c as it is: an ASCII
// byte that is neither a control character nor one of &<>"'.
var xmlPlain = func() (t [256]bool) {
	for c := 0x20; c < utf8.RuneSelf; c++ {
		t[c] = !strings.ContainsRune(`&<>"'`, rune(c))
	}
	return t
}()

// xmlEscapes[c] is what escapeText writes for an ASCII byte c it does not
// copy: an entity for &<>"' and the three whitespace controls, U+FFFD for
// the other control characters, which XML cannot carry.
var xmlEscapes = func() (t [utf8.RuneSelf]string) {
	for c := range t {
		t[c] = "\uFFFD"
	}
	for c, e := range map[byte]string{'"': "&#34;", '\'': "&#39;", '&': "&amp;", '<': "&lt;", '>': "&gt;",
		'\t': "&#x9;", '\n': "&#xA;", '\r': "&#xD;"} {
		t[c] = e
	}
	return t
}()

// escapeText appends s escaped as xml.EscapeText writes it: the table's
// escape for each ASCII byte it does not copy, and U+FFFD for each byte of
// invalid UTF-8 and each rune outside XML's character range.
func escapeText(b []byte, s string) []byte {
	last := 0
	for i := 0; i < len(s); {
		c := s[i]
		if xmlPlain[c] {
			i++
			continue
		}
		esc, width := "", 1
		if c < utf8.RuneSelf {
			esc = xmlEscapes[c]
		} else {
			r, w := utf8.DecodeRuneInString(s[i:])
			if !(r == utf8.RuneError && w == 1) && (r <= 0xD7FF || r >= 0xE000 && r <= 0xFFFD || r >= 0x10000) {
				i += w
				continue
			}
			esc, width = "\uFFFD", w
		}
		b = append(b, s[last:i]...)
		b = append(b, esc...)
		i += width
		last = i
	}
	return append(b, s[last:]...)
}
