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

// Parse reads one XML document from r and returns its numbered tree. If the
// input contains multiple top-level elements (as reviews.xml in the paper's
// Fig. 1 does), they are wrapped under a synthetic root element named
// wrapper, mirroring what an XML database's document node would do.
//
// Character data is whitespace-trimmed; whitespace-only text nodes are
// dropped. Comments and processing instructions are ignored.
func Parse(r io.Reader) (*Node, error) {
	dec := xml.NewDecoder(r)
	var roots []*Node
	var stack []*Node
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
			n := NewElement(t.Name.Local)
			for _, a := range t.Attr {
				n.Attrs = append(n.Attrs, Attr{Name: a.Name.Local, Value: a.Value})
			}
			if len(stack) > 0 {
				stack[len(stack)-1].AppendChild(n)
			}
			stack = append(stack, n)
		case xml.EndElement:
			if len(stack) == 0 {
				return nil, fmt.Errorf("xmltree: parse: unbalanced end element </%s>", t.Name.Local)
			}
			top := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if len(stack) == 0 {
				roots = append(roots, top)
			}
		case xml.CharData:
			if len(stack) == 0 {
				continue // ignore top-level whitespace
			}
			text := strings.TrimSpace(string(t))
			if text == "" {
				continue
			}
			stack[len(stack)-1].AppendChild(NewText(text))
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
		root = NewElement("wrapper")
		for _, r := range roots {
			root.AppendChild(r)
		}
	}
	Number(root)
	return root, nil
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
